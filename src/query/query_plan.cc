#include "query/query_plan.h"

#include <algorithm>

#include "core/quality.h"
#include "index/bm25.h"

namespace microprov {

QueryPlan::QueryPlan(const ParsedQuery& parsed,
                     const IndicantDictionary& dict,
                     const SummaryIndex& index, size_t total_bundles,
                     Timestamp now, const QueryWeights& weights,
                     QueryPlanScratch* scratch)
    : scratch_(scratch),
      weights_(weights),
      now_(now),
      gamma_(1.0 - weights.alpha_text - weights.beta_indicant),
      num_keywords_(parsed.keywords.size()),
      num_indicant_terms_(parsed.hashtags.size() + parsed.urls.size() +
                          parsed.keywords.size()) {
  scratch_->keywords.clear();
  scratch_->hashtags.clear();
  scratch_->urls.clear();

  // Same expression BundleTextScore uses for its normalizer.
  max_idf_ = Bm25Idf(
      static_cast<uint32_t>(std::max<size_t>(total_bundles, 2)), 1);

  double idf_sum = 0.0;       // over keywords resolved in this shard
  double idf_sum_all = 0.0;   // over every keyword (archived bound)
  for (size_t i = 0; i < parsed.keywords.size(); ++i) {
    PlanKeyword term;
    term.keyword = dict.Find(IndicantType::kKeyword, parsed.keywords[i]);
    term.stem_tag = dict.Find(IndicantType::kHashtag, parsed.keywords[i]);
    if (i < parsed.raw_words.size()) {
      term.raw_tag = dict.Find(IndicantType::kHashtag,
                               parsed.raw_words[i]);
    }
    // Same idf expression BundleTextScore evaluates per candidate; a
    // term with no live posting gets df=0 -> max(df,1)=1, but its tf is
    // 0 against every live bundle so the value never enters a sum.
    const size_t df =
        index.DocumentFrequencyId(IndicantType::kKeyword, term.keyword);
    term.idf = Bm25Idf(
        static_cast<uint32_t>(std::max<size_t>(total_bundles, 1)),
        static_cast<uint32_t>(std::max<size_t>(df, 1)));
    if (term.keyword != kInvalidTermId) idf_sum += term.idf;
    idf_sum_all += term.idf;
    scratch_->keywords.push_back(term);
  }
  for (const std::string& tag : parsed.hashtags) {
    scratch_->hashtags.push_back(dict.Find(IndicantType::kHashtag, tag));
  }
  for (const std::string& url : parsed.urls) {
    scratch_->urls.push_back(dict.Find(IndicantType::kUrl, url));
  }

  // Upper bounds per Eq. 7 component. Text: every matching term
  // contributes at most idf (tf/(tf+2) < 1), normalized like TextScore.
  // Indicant closeness: only terms resolvable in this shard can hit a
  // live bundle. Quality: BundleQuality is in [0, 1]. Freshness is
  // added per candidate by UpperBound() (exact, and dropped when the
  // configured weights make gamma negative — the bound must only grow).
  double s_upper = 0.0;
  double s_upper_all = 0.0;
  if (num_keywords_ > 0 && max_idf_ > 0.0) {
    s_upper = idf_sum /
              (static_cast<double>(num_keywords_) * max_idf_);
    s_upper_all = idf_sum_all /
                  (static_cast<double>(num_keywords_) * max_idf_);
  }
  size_t resolvable = 0;
  for (const PlanKeyword& term : scratch_->keywords) {
    if (term.stem_tag != kInvalidTermId ||
        term.raw_tag != kInvalidTermId) {
      ++resolvable;
    }
  }
  for (TermId tag : scratch_->hashtags) {
    if (tag != kInvalidTermId) ++resolvable;
  }
  for (TermId url : scratch_->urls) {
    if (url != kInvalidTermId) ++resolvable;
  }
  double i_upper = 0.0;
  double i_upper_all = 0.0;
  if (num_indicant_terms_ > 0) {
    i_upper = static_cast<double>(resolvable) /
              static_cast<double>(num_indicant_terms_);
    i_upper_all = 1.0;
  }
  const double quality_upper =
      weights.quality_weight > 0.0 ? weights.quality_weight : 0.0;
  static_bound_ = weights.alpha_text * s_upper +
                  weights.beta_indicant * i_upper + quality_upper;
  archived_bound_ = weights.alpha_text * s_upper_all +
                    weights.beta_indicant * i_upper_all + quality_upper +
                    (gamma_ >= 0.0 ? gamma_ : 0.0);
}

double QueryPlan::TextScore(const Bundle& bundle) const {
  // Mirrors BundleTextScore operation for operation (bit-identical
  // doubles are the equivalence contract).
  if (num_keywords_ == 0) return 0.0;
  double score = 0.0;
  for (const PlanKeyword& term : scratch_->keywords) {
    const uint32_t tf =
        bundle.CountOfId(IndicantType::kKeyword, term.keyword);
    if (tf == 0) continue;
    score += term.idf * (static_cast<double>(tf) / (tf + 2.0));
  }
  if (max_idf_ <= 0.0) return 0.0;
  return score / (static_cast<double>(num_keywords_) * max_idf_);
}

double QueryPlan::IndicantScore(const Bundle& bundle) const {
  // Mirrors BundleIndicantScore.
  if (num_indicant_terms_ == 0) return 0.0;
  size_t hits = 0;
  for (TermId tag : scratch_->hashtags) {
    if (bundle.CountOfId(IndicantType::kHashtag, tag) > 0) ++hits;
  }
  for (TermId url : scratch_->urls) {
    if (bundle.CountOfId(IndicantType::kUrl, url) > 0) ++hits;
  }
  for (const PlanKeyword& term : scratch_->keywords) {
    if (bundle.CountOfId(IndicantType::kHashtag, term.stem_tag) > 0 ||
        bundle.CountOfId(IndicantType::kHashtag, term.raw_tag) > 0) {
      ++hits;
    }
  }
  return static_cast<double>(hits) /
         static_cast<double>(num_indicant_terms_);
}

double QueryPlan::Score(const Bundle& bundle) const {
  // Mirrors BundleRelevance: same association order, same gamma
  // expression, quality added afterwards.
  double score =
      weights_.alpha_text * TextScore(bundle) +
      weights_.beta_indicant * IndicantScore(bundle) +
      gamma_ * BundleFreshness(bundle, now_, weights_.time_scale_secs);
  if (weights_.quality_weight > 0.0) {
    score += weights_.quality_weight * BundleQuality(bundle);
  }
  return score;
}

}  // namespace microprov
