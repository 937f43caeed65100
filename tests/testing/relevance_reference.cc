#include "testing/relevance_reference.h"

#include <algorithm>

#include "core/quality.h"
#include "index/bm25.h"

namespace microprov {
namespace testing_util {

double BundleTextScore(const ParsedQuery& query, const Bundle& bundle,
                       const SummaryIndex& index, size_t total_bundles) {
  if (query.keywords.empty()) return 0.0;
  double score = 0.0;
  for (const std::string& term : query.keywords) {
    const uint32_t tf = bundle.CountOf(IndicantType::kKeyword, term);
    if (tf == 0) continue;
    const size_t df =
        index.DocumentFrequency(IndicantType::kKeyword, term);
    const double idf =
        Bm25Idf(static_cast<uint32_t>(std::max<size_t>(total_bundles, 1)),
                static_cast<uint32_t>(std::max<size_t>(df, 1)));
    // Saturating tf so giant bundles don't dominate purely by volume.
    score += idf * (static_cast<double>(tf) / (tf + 2.0));
  }
  // Normalize to [0, ~1] by query length and a typical idf magnitude.
  const double max_idf =
      Bm25Idf(static_cast<uint32_t>(std::max<size_t>(total_bundles, 2)), 1);
  if (max_idf <= 0.0) return 0.0;
  return score / (static_cast<double>(query.keywords.size()) * max_idf);
}

double BundleIndicantScore(const ParsedQuery& query, const Bundle& bundle) {
  size_t total = query.hashtags.size() + query.urls.size() +
                 query.keywords.size();
  if (total == 0) return 0.0;
  size_t hits = 0;
  for (const std::string& tag : query.hashtags) {
    if (bundle.CountOf(IndicantType::kHashtag, tag) > 0) ++hits;
  }
  for (const std::string& url : query.urls) {
    if (bundle.CountOf(IndicantType::kUrl, url) > 0) ++hits;
  }
  // Plain words often name hashtags ("yankee redsox" -> #redsox); match
  // both the raw surface form and the stem.
  for (size_t i = 0; i < query.keywords.size(); ++i) {
    if (bundle.CountOf(IndicantType::kHashtag, query.keywords[i]) > 0 ||
        (i < query.raw_words.size() &&
         bundle.CountOf(IndicantType::kHashtag, query.raw_words[i]) > 0)) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(total);
}

double BundleRelevance(const ParsedQuery& query, const Bundle& bundle,
                       const SummaryIndex& index, size_t total_bundles,
                       Timestamp now, const QueryWeights& weights) {
  const double gamma = 1.0 - weights.alpha_text - weights.beta_indicant;
  double score =
      weights.alpha_text *
          BundleTextScore(query, bundle, index, total_bundles) +
      weights.beta_indicant * BundleIndicantScore(query, bundle) +
      gamma * BundleFreshness(bundle.last_update(), now,
                              weights.time_scale_secs);
  if (weights.quality_weight > 0.0) {
    score += weights.quality_weight * BundleQuality(bundle);
  }
  return score;
}

}  // namespace testing_util
}  // namespace microprov
