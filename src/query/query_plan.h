#ifndef MICROPROV_QUERY_QUERY_PLAN_H_
#define MICROPROV_QUERY_QUERY_PLAN_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/bundle.h"
#include "core/indicant_dictionary.h"
#include "core/summary_index.h"
#include "query/bundle_ranker.h"

namespace microprov {

/// One query keyword, resolved once per query into the shard's TermId
/// spaces: the stem in the keyword space (text score) plus the stem and
/// raw surface form in the hashtag space (a bare word may name a tag).
/// kInvalidTermId marks a form the shard never interned — its postings
/// lookup and per-candidate count are guaranteed zero.
struct PlanKeyword {
  TermId keyword = kInvalidTermId;
  TermId stem_tag = kInvalidTermId;
  TermId raw_tag = kInvalidTermId;
  /// Bm25Idf for the keyword term, computed once per query (the string
  /// path recomputed it per candidate).
  double idf = 0.0;
};

/// Reusable buffers behind a QueryPlan; keep one per thread and the
/// steady-state plan build and scoring allocate nothing.
struct QueryPlanScratch {
  std::vector<PlanKeyword> keywords;
  std::vector<TermId> hashtags;
  std::vector<TermId> urls;
  /// One candidate's gathered counts: the keyword-summary count of each
  /// plan keyword, and (archived records) a hit flag per indicant term.
  std::vector<uint32_t> tf;
  std::vector<uint8_t> hits;
};

/// The evaluation plan for one (query, shard) pair: terms resolved to
/// the shard dictionary's TermIds, per-term IDF and the normalization
/// constants precomputed, and the MaxScore-style upper bound folded into
/// one constant plus a per-candidate freshness term.
///
/// Eq. 7 is computed in two steps. A gather step counts the query's
/// terms in one candidate — by TermId for a live bundle (Score), by
/// string in the encoded record for an archived one (ScoreRecord) — and
/// one combine step turns the counts into the score, so both tiers share
/// the same arithmetic in the same order. UpperBound() dominates Score():
/// text is bounded by Σidf/(n·max_idf) (tf/(tf+2) < 1), indicant
/// closeness by resolvable/total, quality by its weight (BundleQuality
/// is in [0,1]), and freshness is evaluated exactly — it is O(1) per
/// candidate.
class QueryPlan {
 public:
  /// Builds the plan against one shard's dictionary + summary index.
  /// All referenced objects, `parsed` included, must outlive the plan;
  /// `scratch` backs the term vectors and the gathered counts (one plan
  /// per scratch at a time).
  QueryPlan(const ParsedQuery& parsed, const IndicantDictionary& dict,
            const SummaryIndex& index, size_t total_bundles,
            Timestamp now, const QueryWeights& weights,
            QueryPlanScratch* scratch);

  /// Exact Eq. 7 relevance of a live bundle, which must be stamped by
  /// the plan's dictionary (every pool bundle is).
  double Score(const Bundle& bundle) const;

  /// Exact Eq. 7 relevance of an archived bundle from its encoded
  /// record: the query's terms are matched by string against each
  /// member's summary keywords, hashtags and URLs, so terms this shard
  /// never interned count too. Builds no Bundle unless quality_weight >
  /// 0 (off by default): BundleQuality needs the whole tree, so only
  /// then is the record decoded. Fails on a malformed record.
  Status ScoreRecord(std::string_view record, double* score) const;

  /// Cheap dominating bound on Score(bundle): the per-query static head
  /// plus the exact freshness term. Candidates whose bound cannot beat
  /// the current kth score are skipped without touching their summaries.
  double UpperBound(const Bundle& bundle) const {
    const double fresh = gamma_ * BundleFreshness(bundle.last_update(), now_,
                                                  weights_.time_scale_secs);
    return static_bound_ + (gamma_ >= 0.0 ? fresh : 0.0);
  }

  /// Bound on the score of ANY archived bundle, usable before reading
  /// it: an archived record matches by string, where even terms this
  /// shard never interned can hit, so the text/indicant heads assume
  /// every query term hits (and freshness <= 1).
  double ArchivedUpperBound() const { return archived_bound_; }

  const std::vector<PlanKeyword>& keywords() const {
    return scratch_->keywords;
  }
  const std::vector<TermId>& hashtags() const { return scratch_->hashtags; }
  const std::vector<TermId>& urls() const { return scratch_->urls; }

 private:
  /// The combine step: Eq. 7 from the gathered keyword counts in
  /// scratch_->tf and the indicant hit count.
  double Combine(size_t indicant_hits, Timestamp last_update,
                 const Bundle* quality_source) const;

  const ParsedQuery* parsed_;
  QueryPlanScratch* scratch_;
  QueryWeights weights_;
  Timestamp now_ = 0;
  double gamma_ = 0.0;
  /// Bm25Idf(max(total_bundles,2), 1) — the text-score normalizer.
  double max_idf_ = 0.0;
  size_t num_keywords_ = 0;
  size_t num_indicant_terms_ = 0;  // hashtags + urls + keywords
  /// α·s_upper + β·i_upper + quality_weight (freshness added per call).
  double static_bound_ = 0.0;
  double archived_bound_ = 0.0;
};

}  // namespace microprov

#endif  // MICROPROV_QUERY_QUERY_PLAN_H_
