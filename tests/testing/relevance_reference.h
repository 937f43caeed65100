#ifndef MICROPROV_TESTS_TESTING_RELEVANCE_REFERENCE_H_
#define MICROPROV_TESTS_TESTING_RELEVANCE_REFERENCE_H_

#include <cstddef>

#include "core/bundle.h"
#include "core/summary_index.h"
#include "query/bundle_ranker.h"

namespace microprov {
namespace testing_util {

// Eq. 7 written the plain way, over surface strings and a decoded
// bundle: the independent oracle for QueryPlan's gather-and-combine
// scorer. Every term is looked up by string per candidate, so a term the
// shard never interned scores like any other.

/// s(q,B): text relevance of the query against the bundle's keyword
/// summary, IDF-weighted using bundle-level document frequencies from the
/// summary index (`total_bundles` = live pool size).
double BundleTextScore(const ParsedQuery& query, const Bundle& bundle,
                       const SummaryIndex& index, size_t total_bundles);

/// i(q,B): fraction of the query's indicant terms (hashtags, URLs, plus
/// keywords doubling as hashtags) present in the bundle's summaries.
double BundleIndicantScore(const ParsedQuery& query, const Bundle& bundle);

/// Eq. 7 composite, plus quality_weight · BundleQuality when set.
double BundleRelevance(const ParsedQuery& query, const Bundle& bundle,
                       const SummaryIndex& index, size_t total_bundles,
                       Timestamp now, const QueryWeights& weights);

}  // namespace testing_util
}  // namespace microprov

#endif  // MICROPROV_TESTS_TESTING_RELEVANCE_REFERENCE_H_
