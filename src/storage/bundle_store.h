#ifndef MICROPROV_STORAGE_BUNDLE_STORE_H_
#define MICROPROV_STORAGE_BUNDLE_STORE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/env.h"
#include "common/hash.h"
#include "common/status.h"
#include "common/statusor.h"
#include "core/pool.h"
#include "obs/metrics.h"
#include "storage/log_writer.h"

namespace microprov {

/// What the archive keeps in memory for each stored bundle, filed from
/// the record's bytes when it is put or recovered: enough to filter a
/// search candidate and to materialize an archived winner without
/// reading the log.
struct ArchivedSummary {
  /// The most summary words kept: Bundle::TopKeywords(10) in its order.
  static constexpr size_t kMaxWords = 10;

  uint32_t size = 0;
  Timestamp start_time = 0;
  Timestamp end_time = 0;
  Timestamp last_update = 0;
  uint32_t num_words = 0;
  /// The term index's own key strings; no per-bundle copies.
  std::array<const std::string*, kMaxWords> words{};
};

/// The paper's "on-disk storage back-end ... used to keep finished bundles
/// that no longer receive updates" (Fig. 4). Bundles are appended as
/// records to rotating CRC-framed log files. In memory the store keeps,
/// per bundle, its record's address (file, offset, framed length) and an
/// ArchivedSummary, plus a term index from hashtags and top keywords to
/// bundle ids. Recovery rebuilds all three by scanning the logs,
/// tolerating a torn tail record.
class BundleStore final : public BundleArchive {
 public:
  struct Options {
    std::string dir;
    /// Start a new log file once the current one exceeds this.
    uint64_t rotate_bytes = 64ull << 20;
  };

  static StatusOr<std::unique_ptr<BundleStore>> Open(const Options& options);

  ~BundleStore() override;

  /// Appends `bundle`; a later Put of the same id supersedes the earlier
  /// record.
  Status Put(const Bundle& bundle) override;

  /// Point read: reads the record from disk and decodes it.
  StatusOr<std::shared_ptr<const Bundle>> Get(BundleId id);

  /// Reads `id`'s record with one pread, through a log-file handle the
  /// store keeps open, into `*buffer` (reused across calls) and points
  /// *record at its bytes inside it, decoding nothing.
  Status ReadRecord(BundleId id, std::string* buffer,
                    std::string_view* record);

  /// `id`'s in-memory summary, or nullptr if the store lacks it. Valid
  /// until the next Put.
  const ArchivedSummary* Summary(BundleId id) const {
    auto it = index_.find(id);
    return it == index_.end() ? nullptr : &it->second.summary;
  }

  bool Contains(BundleId id) const { return index_.count(id) > 0; }
  uint64_t bundle_count() const { return index_.size(); }
  BundleId max_bundle_id() const { return max_bundle_id_; }
  BundleId MaxBundleId() const override { return max_bundle_id_; }

  /// All stored bundle ids (unordered).
  std::vector<BundleId> ListBundleIds() const;

  /// Archived bundles that carry `term` as an indicant of `type`: a
  /// hashtag, or one of their top keywords (ascending, deduplicated).
  /// Empty for other types.
  std::vector<BundleId> FindByTerm(IndicantType type,
                                   const std::string& term) const;

  /// Visits every stored bundle (decoded); stops on callback error.
  Status Scan(
      const std::function<Status(const Bundle& bundle)>& fn);

  /// Pushes buffered records to the OS (survives a process crash).
  Status Flush();

  /// Flush + fsync of every log file written since the last Sync, so the
  /// records also survive power loss.
  Status Sync();

  /// Rewrites every live bundle record into fresh log files and deletes
  /// the old ones, reclaiming space held by superseded records (re-puts)
  /// and dead padding. Point-read locations are updated in place;
  /// summaries and the term index stay as they are.
  Status Compact();

  /// Total bytes across all current log files (for compaction policy).
  StatusOr<uint64_t> TotalLogBytes() const;

  uint64_t puts() const { return puts_; }
  uint64_t compactions() const { return compactions_; }

  /// Approximate heap bytes of the in-memory side: term index, record
  /// addresses and summaries.
  uint64_t IndexBytes() const;

  /// Registers this store's metrics: shared dump counters/latency plus
  /// per-instance archived-bundle and index-bytes gauges labeled
  /// `shard_label`. The registry must outlive the store.
  void BindMetrics(obs::MetricsRegistry* registry,
                   const std::string& shard_label);

 private:
  /// A record's framed span in its log file, padding included.
  struct Location {
    uint32_t file_number = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
  };
  struct Entry {
    Location location;
    ArchivedSummary summary;
  };

  explicit BundleStore(const Options& options);

  Status RecoverFromDir();
  Status OpenNewLogFile();
  /// Files the bundle record stored at `location`: its id's point-read
  /// address and summary, and the id under each of its hashtags and top
  /// keywords. Reads the record in place, building no Bundle; Put and
  /// recovery both go through here. Fails, filing nothing, on a record
  /// that DecodeBundle rejects.
  Status IndexRecord(std::string_view record, Location location);
  std::string LogFileName(uint32_t number) const;

  Options options_;
  std::unordered_map<BundleId, Entry> index_;
  /// Read handles, opened on first read of each log file.
  std::unordered_map<uint32_t, std::unique_ptr<RandomAccessFile>> readers_;
  std::unique_ptr<log::Writer> writer_;
  uint32_t current_file_number_ = 0;
  uint64_t current_file_size_ = 0;
  std::vector<uint32_t> file_numbers_;
  /// Log files rotated out since the last Sync, closed but not fsynced.
  std::vector<uint32_t> unsynced_files_;
  BundleId max_bundle_id_ = 0;
  /// Per IndicantType, like the live summary index: a `#tag` query must
  /// not reach a bundle that carries the word only as a keyword.
  std::unordered_map<std::string, std::vector<BundleId>,
                     TransparentStringHash, std::equal_to<>>
      term_index_[kNumIndicantTypes];
  /// IndexRecord's reusable scratch, views into the record it reads.
  std::vector<std::string_view> scratch_tags_;
  std::vector<std::string_view> scratch_words_;
  std::vector<std::pair<std::string_view, uint32_t>> scratch_counts_;
  /// Ids across the term index's postings.
  uint64_t postings_ = 0;
  uint64_t puts_ = 0;
  uint64_t compactions_ = 0;

  // Observability handles (null until BindMetrics; never owned).
  obs::Counter* puts_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* syncs_counter_ = nullptr;
  obs::HistogramMetric* put_hist_ = nullptr;
  obs::Gauge* bundles_gauge_ = nullptr;
  obs::Gauge* index_bytes_gauge_ = nullptr;
};

}  // namespace microprov

#endif  // MICROPROV_STORAGE_BUNDLE_STORE_H_
