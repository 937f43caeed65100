#ifndef MICROPROV_STORAGE_BUNDLE_STORE_H_
#define MICROPROV_STORAGE_BUNDLE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/cache.h"
#include "common/hash.h"
#include "common/status.h"
#include "common/statusor.h"
#include "core/pool.h"
#include "obs/metrics.h"
#include "storage/log_writer.h"

namespace microprov {

/// The paper's "on-disk storage back-end ... used to keep finished bundles
/// that no longer receive updates" (Fig. 4). Bundles are appended as
/// records to rotating CRC-framed log files; an in-memory sparse index
/// (bundle id -> file, offset) supports point reads, with an LRU cache of
/// decoded bundles on the read path. Recovery rebuilds the index by
/// scanning the logs, tolerating a torn tail record.
class BundleStore final : public BundleArchive {
 public:
  struct Options {
    std::string dir;
    /// Start a new log file once the current one exceeds this.
    uint64_t rotate_bytes = 64ull << 20;
    /// Decoded-bundle LRU capacity (entries).
    size_t cache_entries = 256;
  };

  static StatusOr<std::unique_ptr<BundleStore>> Open(const Options& options);

  ~BundleStore() override;

  /// Appends `bundle`; a later Put of the same id supersedes the earlier
  /// record.
  Status Put(const Bundle& bundle) override;

  /// Point read. Decodes from disk (through the LRU cache).
  StatusOr<std::shared_ptr<const Bundle>> Get(BundleId id);

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
  /// and dead padding. Point-read locations are updated in place; the
  /// decoded-bundle cache stays valid (ids don't change).
  Status Compact();

  /// Total bytes across all current log files (for compaction policy).
  StatusOr<uint64_t> TotalLogBytes() const;

  uint64_t puts() const { return puts_; }
  uint64_t compactions() const { return compactions_; }
  uint64_t cache_hits() const { return cache_.hits(); }
  uint64_t cache_misses() const { return cache_.misses(); }

  /// Registers this store's metrics: shared dump counters/latency plus a
  /// per-instance archived-bundle gauge labeled `shard_label`. The
  /// registry must outlive the store.
  void BindMetrics(obs::MetricsRegistry* registry,
                   const std::string& shard_label);

 private:
  struct Location {
    uint32_t file_number = 0;
    uint64_t offset = 0;
  };

  explicit BundleStore(const Options& options);

  Status RecoverFromDir();
  Status OpenNewLogFile();
  /// Files the bundle record stored at `location`: its id's point-read
  /// address, and the id under each of its hashtags and top keywords.
  /// Reads the record in place, building no Bundle; Put and recovery
  /// both go through here. Fails, filing nothing, on a record that
  /// DecodeBundle rejects.
  Status IndexRecord(std::string_view record, Location location);
  std::string LogFileName(uint32_t number) const;
  Status ReadRecordAt(uint32_t file_number, uint64_t offset,
                      std::string* record);

  Options options_;
  std::unordered_map<BundleId, Location> index_;
  std::unique_ptr<log::Writer> writer_;
  uint32_t current_file_number_ = 0;
  uint64_t current_file_size_ = 0;
  std::vector<uint32_t> file_numbers_;
  /// Log files rotated out since the last Sync, closed but not fsynced.
  std::vector<uint32_t> unsynced_files_;
  BundleId max_bundle_id_ = 0;
  LruCache<BundleId, std::shared_ptr<const Bundle>> cache_;
  /// Per IndicantType, like the live summary index: a `#tag` query must
  /// not reach a bundle that carries the word only as a keyword.
  std::unordered_map<std::string, std::vector<BundleId>,
                     TransparentStringHash, std::equal_to<>>
      term_index_[kNumIndicantTypes];
  /// IndexRecord's reusable scratch, views into the record it reads.
  std::vector<std::string_view> scratch_tags_;
  std::vector<std::string_view> scratch_words_;
  std::vector<std::pair<std::string_view, uint32_t>> scratch_counts_;
  uint64_t puts_ = 0;
  uint64_t compactions_ = 0;

  // Observability handles (null until BindMetrics; never owned).
  obs::Counter* puts_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* syncs_counter_ = nullptr;
  obs::HistogramMetric* put_hist_ = nullptr;
  obs::Gauge* bundles_gauge_ = nullptr;
};

}  // namespace microprov

#endif  // MICROPROV_STORAGE_BUNDLE_STORE_H_
