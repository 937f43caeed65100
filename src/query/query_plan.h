#ifndef MICROPROV_QUERY_QUERY_PLAN_H_
#define MICROPROV_QUERY_QUERY_PLAN_H_

#include <cstdint>
#include <vector>

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
/// steady-state plan build allocates nothing.
struct QueryPlanScratch {
  std::vector<PlanKeyword> keywords;
  std::vector<TermId> hashtags;
  std::vector<TermId> urls;
};

/// The id-native evaluation plan for one (query, shard) pair: terms
/// resolved to the shard dictionary's TermIds, per-term IDF and the
/// normalization constants precomputed, and the MaxScore-style upper
/// bound folded into one constant plus a per-candidate freshness term.
///
/// Score() is arithmetic-identical to BundleRelevance() for bundles
/// stamped by the plan's dictionary — same operations in the same order
/// — so the optimized path returns byte-identical scores to the string
/// path (the equivalence suite pins this). UpperBound() dominates
/// Score() for those bundles: text is bounded by Σidf/(n·max_idf)
/// (tf/(tf+2) < 1), indicant closeness by resolvable/total, quality by
/// its weight (BundleQuality is in [0,1]), and freshness is evaluated
/// exactly — it is O(1) per candidate.
class QueryPlan {
 public:
  /// Builds the plan against one shard's dictionary + summary index.
  /// All referenced objects must outlive the plan; `scratch` backs the
  /// term vectors (one plan per scratch at a time).
  QueryPlan(const ParsedQuery& parsed, const IndicantDictionary& dict,
            const SummaryIndex& index, size_t total_bundles,
            Timestamp now, const QueryWeights& weights,
            QueryPlanScratch* scratch);

  /// Exact Eq. 7 relevance via TermId-keyed counts. `bundle` must be
  /// stamped by the plan's dictionary (live pool bundles are; archived
  /// bundles decode with private dictionaries — score those with
  /// BundleRelevance instead).
  double Score(const Bundle& bundle) const;

  /// Cheap dominating bound on Score(bundle): the per-query static head
  /// plus the exact freshness term. Candidates whose bound cannot beat
  /// the current kth score are skipped without touching their summaries.
  double UpperBound(const Bundle& bundle) const {
    const double fresh =
        gamma_ * BundleFreshness(bundle, now_, weights_.time_scale_secs);
    return static_bound_ + (gamma_ >= 0.0 ? fresh : 0.0);
  }

  /// Bound on the score of ANY archived bundle, usable before decoding
  /// it: archived bundles score through the string path, where even
  /// terms this shard never interned can match, so the text/indicant
  /// heads assume every query term hits (and freshness <= 1).
  double ArchivedUpperBound() const { return archived_bound_; }

  const std::vector<PlanKeyword>& keywords() const {
    return scratch_->keywords;
  }
  const std::vector<TermId>& hashtags() const { return scratch_->hashtags; }
  const std::vector<TermId>& urls() const { return scratch_->urls; }

 private:
  double TextScore(const Bundle& bundle) const;
  double IndicantScore(const Bundle& bundle) const;

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
