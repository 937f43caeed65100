#ifndef MICROPROV_RECOVERY_CHECKPOINT_H_
#define MICROPROV_RECOVERY_CHECKPOINT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "obs/metrics.h"
#include "recovery/snapshot.h"
#include "recovery/wal.h"

namespace microprov {
namespace recovery {

/// Where the group-commit flusher is when the flush-phase test hook
/// fires. Crash-injection tests SIGKILL themselves inside the hook to
/// exercise each window of the durability protocol.
enum class WalFlushPhase {
  /// A batch was dequeued from the append buffers but nothing has been
  /// written yet: these records die with the process, and the durable
  /// watermark still excludes them.
  kDequeued,
  /// Part of the batch (some shards) has been written, the rest has
  /// not: the written prefix is an un-watermarked WAL tail.
  kMidBatch,
  /// The whole batch is written and flushed but the durable watermark
  /// has not been published: recovery sees records past the watermark
  /// base and must still apply them (they are contiguous).
  kPrePublish,
};

/// Knobs for the Service's durability layer.
struct DurabilityOptions {
  /// Root directory: `CURRENT`, `checkpoint-<seq>.snap`,
  /// `checkpoint-<seq>.delta`, and `wal/shard-<i>/` live here. Empty
  /// disables durability entirely; set, every accepted message is
  /// logged.
  std::string dir;
  /// fsync every WAL batch: power-loss durability. Checkpoints then also
  /// fsync the bundle stores before installing. Off, each batch is
  /// flushed to the kernel, which survives SIGKILL but not power loss.
  bool wal_sync_every_append = false;
  /// Group-commit window: accepted records buffer in memory and the
  /// flusher thread sweeps them at this cadence (worst-case
  /// acceptance-to-durability lag is ~2 windows: one poll plus one
  /// accumulation linger), or as soon as kWalGroupCommitBytes of
  /// encoded records are pending. Barriers (Flush/Drain/Checkpoint)
  /// kick the flusher and never wait out the window. 0 degenerates to
  /// write-per-wakeup (still batched under load). The default trades a
  /// few milliseconds of watermark lag for ~4x fewer flusher wakeups
  /// and per-shard flush syscalls than a 1ms window — on small hosts
  /// those wakeups preempt the shard workers and show up directly as
  /// ingest throughput loss.
  uint64_t wal_group_commit_interval_us = 4000;
  /// Service::Ingest triggers a checkpoint once this many messages have
  /// been accepted since the last one (0 = only explicit Checkpoint()
  /// calls and Drain).
  uint64_t checkpoint_every_messages = 0;
  /// Periodic checkpoints are deltas (changes since the previous
  /// checkpoint); every `full_checkpoint_every`th install is a full base
  /// snapshot, bounding both the recovery chain and WAL retention
  /// (segments are only collected at base installs). 1 makes every
  /// install a base.
  uint64_t full_checkpoint_every = 8;

  /// Test-only: invoked by the flusher thread at each WalFlushPhase so
  /// crash-injection tests can SIGKILL inside a specific window.
  std::function<void(WalFlushPhase)> wal_flush_phase_hook_for_test;

  bool enabled() const { return !dir.empty(); }
};

/// Disk mechanics of crash recovery, shared by every shard: the
/// checkpoint manifest (`CURRENT` naming the installed sequence, one
/// atomically-renamed `checkpoint-<seq>.snap` or `.delta` per install),
/// the per-shard WAL writers behind a group-commit flusher thread, and
/// the truncation/GC protocol that keeps them consistent.
///
/// Epochs tie checkpoints and WAL together: WAL segments written after
/// checkpoint S carry epoch S+1, and installing checkpoint S+1 rotates
/// writers to epoch S+2. Garbage collection of superseded WAL epochs
/// runs only at *base* installs, so while a delta chain grows the full
/// WAL tail since the base stays on disk — a checkpoint file lost to
/// bit-rot degrades recovery to "base + valid delta prefix + WAL
/// replay", never to data loss.
///
/// Group commit decouples acceptance from disk: Ingest's thread
/// enqueues encoded records (EnqueueAppend) and the flusher writes them
/// in batches, publishing a durable-sequence watermark that
/// WaitDurable() blocks on. Acceptance sequences travel inside the v2
/// WAL records; recovery trims replay to the contiguous watermark and
/// dedupes records across crash incarnations last-writer-wins.
///
/// Thread contract: EnqueueAppend has a single producer (the Service's
/// mutex); WaitDurable may be called from that same producer;
/// everything else (Open/replay/install/Close) is serialized by the
/// Service. The flusher thread is internal.
class DurabilityManager {
 public:
  /// Opens (creating dirs as needed) and resolves the newest recoverable
  /// checkpoint image: the newest base snapshot that passes its CRC,
  /// extended with every contiguous delta that decodes, chains from it,
  /// and applies cleanly. Does not open WAL writers — the owner replays
  /// first, then calls StartWal().
  static StatusOr<std::unique_ptr<DurabilityManager>> Open(
      const DurabilityOptions& options, uint32_t num_shards,
      obs::MetricsRegistry* registry);

  ~DurabilityManager();

  /// Sequence of the resolved/last-installed checkpoint (0 = none).
  uint64_t checkpoint_seq() const { return seq_; }
  /// Sequence of the last full (base) snapshot in the chain (0 = none).
  uint64_t base_checkpoint_seq() const { return base_seq_; }

  bool has_snapshot() const { return has_snapshot_; }
  /// Moves the resolved snapshot out (valid once, when has_snapshot()).
  ServiceSnapshot TakeSnapshot();

  /// Reads shard `i`'s WAL tail (epochs after the resolved checkpoint)
  /// in append order, with sequence and provenance per record. Interior
  /// corruption or a torn tail in a non-final segment fails with
  /// Corruption (see ReadWalTail).
  StatusOr<std::vector<WalTailRecord>> ReadShardTail(uint32_t shard);
  /// Records that `n` replayed messages were applied (stats + metric).
  void NoteReplayed(uint64_t n);
  const WalReplayStats& replay_stats() const { return replay_stats_; }

  /// Opens the per-shard WAL writers at the post-checkpoint epoch and
  /// starts the group-commit flusher. `durable_floor` is the acceptance
  /// sequence everything already recovered is durable through; the
  /// watermark starts there. Call after replay.
  Status StartWal(uint64_t durable_floor);

  /// Hands one accepted message to the group-commit flusher. `seq` is
  /// the service acceptance sequence (strictly increasing; the single
  /// producer guarantees order). Blocks on backpressure when the
  /// pending buffer is full; returns the flusher's latched error if the
  /// WAL has failed. The record is NOT durable when this returns — use
  /// WaitDurable().
  Status EnqueueAppend(uint32_t shard, uint64_t seq, const Message& msg);

  /// Blocks until the durable watermark reaches `seq` (every record
  /// with sequence <= seq is flushed to the WAL files, and synced in
  /// power-loss mode) or the flusher fails. No-op when the WAL is not
  /// started.
  Status WaitDurable(uint64_t seq);
  uint64_t durable_seq();

  // Flusher-lag telemetry for shard health (lock-free; callable from
  // the scrape path while ingest runs).

  /// Encoded WAL bytes accepted for `shard` but not yet written by the
  /// flusher (includes bytes of a batch currently being written, so a
  /// flusher stuck mid-WriteBatch still shows as pending). 0 when the
  /// WAL is not started.
  uint64_t PendingShardBytes(uint32_t shard) const;

  /// Nanoseconds since the flusher last completed a sweep (idle poll or
  /// batch write), or -1 when the flusher is not running. A large age
  /// with pending bytes means the flusher is stuck, not idle.
  int64_t FlusherHeartbeatAgeNanos() const;

  /// True when the next periodic checkpoint should be an incremental
  /// delta (a base exists and the chain is shorter than
  /// full_checkpoint_every).
  bool ShouldInstallDelta() const;

  /// Installs `snapshot` as full base checkpoint seq+1: durably writes
  /// the snapshot file, rotates WAL writers to the next epoch, flips
  /// CURRENT, then garbage-collects superseded checkpoints, deltas, and
  /// WAL epochs. The caller must have quiesced ingest, waited for
  /// WaitDurable(accepted), and flushed (or, in power-loss mode, synced)
  /// the bundle stores first. The snapshot may borrow the live engines:
  /// it is encoded before this returns and not retained.
  Status InstallCheckpoint(const ServiceSnapshotView& snapshot);

  /// Installs `delta` as incremental checkpoint seq+1 (delta.parent_seq
  /// must equal checkpoint_seq()). Same barrier contract as
  /// InstallCheckpoint, but no garbage collection: superseded WAL
  /// epochs are retained until the next base install so a corrupt delta
  /// file can always be recovered past by replay.
  Status InstallDelta(const ServiceDeltaView& delta);

  /// Stops the flusher (draining any pending records) and closes the
  /// WAL writers.
  Status Close();

  std::string ShardWalDir(uint32_t shard) const;

 private:
  DurabilityManager(const DurabilityOptions& options, uint32_t num_shards)
      : options_(options), num_shards_(num_shards) {}

  std::string CheckpointPath(uint64_t seq) const;
  std::string DeltaPath(uint64_t seq) const;
  Status LoadLatestCheckpoint();
  Status GarbageCollect();
  Status InstallFile(const std::string& path, std::string_view encoded);
  void FlusherLoop();
  /// Writes one stolen batch (per-shard flat buffers of fixed32-length-
  /// prefixed record payloads): appends every record, then one flush
  /// (or, in power-loss mode, sync) per touched shard. Called without
  /// buf_mu_ held.
  Status WriteBatch(const std::vector<std::string>& batch);

  DurabilityOptions options_;
  uint32_t num_shards_;
  uint64_t seq_ = 0;
  uint64_t base_seq_ = 0;
  bool has_snapshot_ = false;
  ServiceSnapshot snapshot_;
  /// Guards writers_ against the install-time epoch rotation racing the
  /// flusher's appends. (Install runs behind a WaitDurable barrier, so
  /// the buffers are empty, but the flusher thread may still be awake.)
  std::mutex writers_mu_;
  std::vector<std::unique_ptr<WalWriter>> writers_;
  WalReplayStats replay_stats_;

  // Group-commit state, guarded by buf_mu_.
  std::mutex buf_mu_;
  std::condition_variable flusher_cv_;   // wakes the flusher
  std::condition_variable durable_cv_;   // watermark advanced / error
  std::condition_variable space_cv_;     // backpressure released
  /// Per-shard flat buffers of fixed32-length-prefixed encoded record
  /// payloads awaiting the flusher. Flat strings instead of
  /// vector<string> queues: records encode in place behind a patched
  /// length slot (zero allocations or copies in steady state), and the
  /// flusher swaps in equally-sized drained buffers so capacity is
  /// recycled between batches.
  std::vector<std::string> pending_;
  uint64_t pending_bytes_ = 0;
  uint64_t pending_records_ = 0;
  /// Highest acceptance sequence enqueued (single producer => every
  /// record with sequence <= this is in pending_ or already written).
  uint64_t last_enqueued_seq_ = 0;
  /// Highest acceptance sequence known written per the flush policy.
  uint64_t durable_seq_ = 0;
  /// First flusher failure; latched, fails all later appends/waits.
  Status flusher_error_;
  bool flusher_kick_ = false;
  bool flusher_stop_ = false;
  std::thread flusher_;

  /// Per-shard framed bytes enqueued minus bytes the flusher has
  /// written — unlike pending_bytes_, these are decremented only AFTER
  /// WriteBatch succeeds, and they are atomics readable off-lock by the
  /// health path. Allocated in StartWal.
  std::unique_ptr<std::atomic<uint64_t>[]> shard_pending_bytes_;
  /// Monotonic time of the flusher's last completed sweep (0 = not
  /// running).
  std::atomic<int64_t> flusher_heartbeat_nanos_{0};

  // Observability handles (null without a registry; never owned).
  obs::Counter* appends_counter_ = nullptr;
  obs::Counter* append_bytes_counter_ = nullptr;
  obs::Counter* flushes_counter_ = nullptr;
  obs::HistogramMetric* flush_batch_hist_ = nullptr;
  obs::HistogramMetric* flush_hist_ = nullptr;
  obs::Counter* checkpoints_counter_ = nullptr;
  obs::Counter* delta_checkpoints_counter_ = nullptr;
  obs::Counter* checkpoint_bytes_counter_ = nullptr;
  obs::Counter* delta_bytes_counter_ = nullptr;
  obs::Counter* replayed_counter_ = nullptr;
  obs::Counter* torn_bytes_counter_ = nullptr;
  obs::Counter* dropped_bytes_counter_ = nullptr;
};

}  // namespace recovery
}  // namespace microprov

#endif  // MICROPROV_RECOVERY_CHECKPOINT_H_
