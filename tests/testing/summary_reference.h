#ifndef MICROPROV_TESTS_TESTING_SUMMARY_REFERENCE_H_
#define MICROPROV_TESTS_TESTING_SUMMARY_REFERENCE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/bundle.h"

namespace microprov {
namespace testing_util {

/// `bundle`'s summary for `type` with every term resolved to its surface
/// form, sorted by term.
std::vector<std::pair<std::string, uint32_t>> ResolvedCounts(
    const Bundle& bundle, IndicantType type);

/// The summary-word rule written the plain way, as the reference for
/// Bundle::TopKeywords: resolve every keyword, sort them all by count
/// descending and then term ascending, keep the first k.
std::vector<std::pair<std::string, uint32_t>> ReferenceTopKeywords(
    const Bundle& bundle, size_t k);

}  // namespace testing_util
}  // namespace microprov

#endif  // MICROPROV_TESTS_TESTING_SUMMARY_REFERENCE_H_
