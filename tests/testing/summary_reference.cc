#include "testing/summary_reference.h"

#include <algorithm>

namespace microprov {
namespace testing_util {

std::vector<std::pair<std::string, uint32_t>> ResolvedCounts(
    const Bundle& bundle, IndicantType type) {
  std::vector<std::pair<std::string, uint32_t>> out;
  for (const auto& [term, count] : bundle.id_counts(type)) {
    out.emplace_back(bundle.dictionary().Resolve(type, term), count);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, uint32_t>> ReferenceTopKeywords(
    const Bundle& bundle, size_t k) {
  std::vector<std::pair<std::string, uint32_t>> all =
      ResolvedCounts(bundle, IndicantType::kKeyword);
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  all.resize(std::min(k, all.size()));
  return all;
}

}  // namespace testing_util
}  // namespace microprov
