#ifndef MICROPROV_CORE_BUNDLE_H_
#define MICROPROV_CORE_BUNDLE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/connection.h"
#include "core/indicant_dictionary.h"
#include "stream/message.h"

namespace microprov {

/// A message plus its intra-bundle provenance connection.
struct BundleMessage {
  Message msg;
  /// Parent message id within this bundle; kInvalidMessageId for the root.
  MessageId parent = kInvalidMessageId;
  ConnectionType conn_type = ConnectionType::kText;
  float conn_score = 0.0f;
};

/// Provenance bundle (Definition 3): a group of related messages forming a
/// directed tree — each message keeps its single maximum-scored connection
/// to a prior message. The bundle maintains an indicant summary (hashtag /
/// URL / keyword / user counts, Fig. 3) used for matching, ranking, and
/// summary-index removal, plus incremental memory accounting for the
/// Fig. 11 experiments.
///
/// Summaries are keyed by interned TermId in the id space of the bundle's
/// dictionary — shared with the owning engine's summary index, so index
/// removal on eviction is pure integer work. Bundles constructed without
/// a dictionary (decoded archives, standalone tests) own a private one.
class Bundle {
 public:
  /// `dict` is the id space for this bundle's summaries (typically the
  /// per-shard dictionary, which must outlive the bundle); nullptr means
  /// the bundle owns a private dictionary.
  explicit Bundle(BundleId id, IndicantDictionary* dict = nullptr);
  Bundle(const Bundle&) = delete;
  Bundle& operator=(const Bundle&) = delete;

  BundleId id() const { return id_; }
  size_t size() const { return messages_.size(); }
  bool empty() const { return messages_.empty(); }

  const IndicantDictionary& dictionary() const { return *dict_; }

  /// Closed bundles accept no further messages (bundle-size constraint,
  /// Section V-B) and are flushed to disk at the next refinement scan.
  bool closed() const { return closed_; }
  void Close() { closed_ = true; }

  /// Earliest / latest message dates (Alg. 2 lines 8-13).
  Timestamp start_time() const { return start_time_; }
  Timestamp end_time() const { return end_time_; }
  /// Date of the most recently *inserted* message — "last update time"
  /// used by the G-score (Eq. 6) and the aging test.
  Timestamp last_update() const { return last_update_; }

  /// Appends `msg` connected to `parent` (kInvalidMessageId for roots).
  /// Stamps the stored copy with this bundle's dictionary if it was not
  /// already interned there.
  void AddMessage(Message msg, MessageId parent, ConnectionType type,
                  float score);

  const std::vector<BundleMessage>& messages() const { return messages_; }

  /// The message with id `id`, or nullptr.
  const BundleMessage* Find(MessageId id) const;

  /// All intra-bundle edges (excluding roots).
  std::vector<Edge> Edges() const;

  // Indicant summaries: interned term -> number of member messages
  // carrying it, in the bundle's dictionary id space.
  using TermCounts = std::unordered_map<TermId, uint32_t>;
  const TermCounts& id_counts(IndicantType type) const {
    return counts_[static_cast<size_t>(type)];
  }

  /// Occurrences of the surface form `value` in this bundle's summary
  /// for `type` (0 when absent). String boundary: queries and tests.
  uint32_t CountOf(IndicantType type, std::string_view value) const;

  /// Id-space twin of CountOf: `term` must be in this bundle's
  /// dictionary id space (kInvalidTermId returns 0). The query hot path
  /// resolves terms once per query and calls this per candidate — no
  /// string hashing.
  uint32_t CountOfId(IndicantType type, TermId term) const {
    if (term == kInvalidTermId) return 0;
    const TermCounts& counts = counts_[static_cast<size_t>(type)];
    auto it = counts.find(term);
    return it == counts.end() ? 0 : it->second;
  }

  bool HasUser(std::string_view user) const {
    return CountOf(IndicantType::kUser, user) > 0;
  }

  /// The most recently posted member message by `user`, or nullptr.
  /// O(1) after the term lookup: maintained incrementally for Alg. 2's
  /// RT resolution.
  const BundleMessage* LatestByUser(std::string_view user) const;
  /// Id-space twin (term in this bundle's dictionary).
  const BundleMessage* LatestByUserId(TermId user) const;

  /// Most frequent keywords, ties broken lexicographically — the "summary
  /// words" column of the paper's Fig. 2 result list. Selects on interned
  /// ids and copies only the k winners' strings.
  std::vector<std::pair<std::string, uint32_t>> TopKeywords(
      size_t k) const;

  /// Approximate heap footprint, maintained incrementally. Interned
  /// strings live in the dictionary and are accounted there.
  size_t ApproxMemoryUsage() const { return mem_usage_; }

  /// Number of keyword indicants each message contributes to summaries.
  static constexpr size_t kSummaryKeywordsPerMessage = 6;

 private:
  void BumpCount(IndicantType type, TermId term);

  BundleId id_;
  // Set iff this bundle was constructed without a shared dictionary.
  std::unique_ptr<IndicantDictionary> owned_dict_;
  IndicantDictionary* dict_;
  bool closed_ = false;
  Timestamp start_time_ = 0;
  Timestamp end_time_ = 0;
  Timestamp last_update_ = 0;
  std::vector<BundleMessage> messages_;
  std::unordered_map<MessageId, size_t> by_id_;
  /// user term -> index of their latest-dated message in messages_.
  std::unordered_map<TermId, size_t> latest_by_user_;
  TermCounts counts_[kNumIndicantTypes];
  size_t mem_usage_ = sizeof(Bundle);
};

/// Keeps the `k` entries of `*items` with the highest counts (`.second`),
/// ordered by count descending and then term (`term_of(entry)`)
/// ascending: the summary-word rule of Bundle::TopKeywords and of the
/// archive's term index. Selects on counts in linear time; terms are
/// compared only among the entries tied at the k-th count.
template <typename Entry, typename TermOf>
void SelectTopByCount(std::vector<Entry>* items, size_t k, TermOf term_of) {
  auto by_term = [&](const Entry& a, const Entry& b) {
    return term_of(a) < term_of(b);
  };
  if (k == 0) {
    items->clear();
    return;
  }
  if (k < items->size()) {
    const auto kth = items->begin() + (k - 1);
    std::nth_element(items->begin(), kth, items->end(),
                     [](const Entry& a, const Entry& b) {
                       return a.second > b.second;
                     });
    const auto cut = kth->second;
    // [first, tied) beat the cut; [tied, tied_end) sit at it, and only
    // the smallest terms among those fill the last slots.
    const auto tied =
        std::partition(items->begin(), kth, [cut](const Entry& e) {
          return e.second > cut;
        });
    const auto tied_end =
        std::partition(kth + 1, items->end(), [cut](const Entry& e) {
          return e.second == cut;
        });
    std::partial_sort(tied, items->begin() + k, tied_end, by_term);
    items->resize(k);
  }
  std::sort(items->begin(), items->end(),
            [&](const Entry& a, const Entry& b) {
              if (a.second != b.second) return a.second > b.second;
              return by_term(a, b);
            });
}

}  // namespace microprov

#endif  // MICROPROV_CORE_BUNDLE_H_
