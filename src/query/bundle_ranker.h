#ifndef MICROPROV_QUERY_BUNDLE_RANKER_H_
#define MICROPROV_QUERY_BUNDLE_RANKER_H_

#include <string>
#include <vector>

#include "common/clock.h"

namespace microprov {

/// Eq. 7 weights: r(q,B) = α·s(q,B) + β·i(q,B) + (1−α−β)·t(B), with
/// α, β in [0,1], α+β <= 1.
struct QueryWeights {
  /// α: textual relevance (BM25-style over bundle keyword summaries).
  double alpha_text = 0.5;
  /// β: indicant closeness (query terms hitting bundle hashtags/URLs).
  double beta_indicant = 0.3;
  /// Freshness decay scale for t(B).
  double time_scale_secs = static_cast<double>(kSecondsPerDay);
  /// Extension beyond Eq. 7 (off by default): adds
  /// quality_weight · BundleQuality(B), implementing the paper's
  /// "Quality Identification" benefit at ranking time so feedback-rich
  /// bundles outrank fresh-but-noise singletons.
  double quality_weight = 0.0;
};

/// Parses free-text queries into match terms: words are stemmed and
/// stopword-filtered like message keywords; '#tag' and URL tokens are kept
/// as indicant terms.
struct ParsedQuery {
  /// Stemmed content words (match message keywords).
  std::vector<std::string> keywords;
  /// The same words unstemmed (match hashtags, which are stored raw:
  /// a query for "yankees" must reach "#yankees" even though the
  /// keyword stem is "yanke").
  std::vector<std::string> raw_words;
  std::vector<std::string> hashtags;
  std::vector<std::string> urls;

  bool empty() const {
    return keywords.empty() && hashtags.empty() && urls.empty();
  }
};

ParsedQuery ParseQuery(const std::string& query);

/// t(B): freshness of a bundle whose last update was `last_update`,
/// relative to `now`.
double BundleFreshness(Timestamp last_update, Timestamp now,
                       double scale_secs);

}  // namespace microprov

#endif  // MICROPROV_QUERY_BUNDLE_RANKER_H_
