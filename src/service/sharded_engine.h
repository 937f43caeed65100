#ifndef MICROPROV_SERVICE_SHARDED_ENGINE_H_
#define MICROPROV_SERVICE_SHARDED_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/atomic_counter.h"
#include "common/bounded_queue.h"
#include "common/status.h"
#include "core/engine.h"
#include "obs/shard_health.h"

namespace microprov {

/// Configuration for the sharded ingestion pipeline.
struct ShardedEngineOptions {
  /// Number of partitions; each owns a full ProvenanceEngine, a clock,
  /// a bounded input queue, and one worker thread.
  size_t num_shards = 4;
  /// Per-shard queue bound; a full queue blocks the submitter
  /// (backpressure) rather than dropping messages.
  size_t queue_capacity = 1024;
  /// Messages a worker dequeues per lock acquisition.
  size_t max_batch = 64;
  /// Engine configuration applied to every shard. Note pool limits are
  /// per shard: N shards at limit M hold up to N*M live bundles total.
  /// When `engine.metrics` is set, the sharded engine also registers its
  /// own queue-depth / backpressure / throughput instruments there and
  /// stamps each shard's engine with its shard index (per-shard gauge
  /// labels); `engine.trace` is shared by every shard (TraceSink is
  /// thread-safe and events carry their shard id).
  EngineOptions engine;
  /// Construct without starting the worker threads; the owner calls
  /// Start() once it is done mutating shard state single-threaded
  /// (checkpoint import + WAL replay at recovery).
  bool defer_workers = false;
  /// Thresholds for the per-shard ShardLoadTracker verdicts.
  obs::ShardHealthOptions health;
};

/// Point-in-time view of one shard's counters (readable while workers
/// run; counts are monotonic and may trail the queue by a batch).
struct ShardStatsSnapshot {
  uint64_t enqueued = 0;
  uint64_t ingested = 0;
  uint64_t batches = 0;
  /// Submit calls that blocked on a full queue (backpressure events).
  uint64_t blocked_pushes = 0;
  size_t queue_depth = 0;
};

/// Shard routing: hashes the message's strongest bundle indicant so
/// messages likely to join the same bundle land on the same shard —
/// the re-shared author for retweets, else the first URL, else the
/// first hashtag, else the message author. Deterministic in the message
/// alone (no global state), so a stream replays to the same placement.
uint32_t RouteShard(const Message& msg, size_t num_shards);

/// Hash-partitioned parallel ingestion over N single-writer
/// ProvenanceEngine instances. The paper's engine is single-writer by
/// design (the stream is totally ordered); this preserves that invariant
/// per shard: each engine is touched only by its own worker thread, fed
/// through a bounded FIFO queue that carries both messages and reads.
///
/// Threading contract:
///   * Submit / Read / Flush / Drain must be called from one thread at a
///     time (the Service façade serializes them), which keeps reads in
///     the same order relative to each other on every shard.
///   * A Read runs on the workers and needs no other synchronization.
///     Reading shard engines directly (shard()) is only safe after
///     Flush() or Drain() returned with no Submit or Read since: the
///     flush barrier establishes the happens-before edge.
class ShardedEngine {
 public:
  /// `archives` supplies one BundleArchive per shard (may be empty =
  /// no disk back-end, or hold nullptr entries). Archives must outlive
  /// the engine and are used exclusively by their shard's worker.
  explicit ShardedEngine(const ShardedEngineOptions& options,
                         std::vector<BundleArchive*> archives = {});
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Starts the worker threads after a defer_workers construction.
  /// Idempotent; must not race Submit.
  void Start();

  /// Routes `msg` and enqueues it on its shard, blocking while that
  /// shard's queue is full. Sets `*shard_out` (if non-null) to the shard
  /// chosen. Fails after Drain() or once any shard worker reported an
  /// ingest error.
  Status Submit(const Message& msg, uint32_t* shard_out = nullptr);

  using ReadFn = std::function<void(size_t shard, size_t total_bundles)>;

  /// Runs `fn(shard, total_bundles)` once per shard on the shard's own
  /// worker, as one item of its queue: behind every message submitted
  /// before the call, so it sees exactly those. `total_bundles` is the
  /// live-bundle count across shards at that point: each worker
  /// publishes its own and waits for the rest before calling `fn`.
  /// `lock` is the caller's hold on what serializes Submit and Read; it
  /// is released once the read is queued, before the wait. When no
  /// workers run (before Start, after Drain), `fn` runs on the caller
  /// with `lock` held. Fails with a shard's latched ingest error.
  Status Read(const ReadFn& fn, std::unique_lock<std::mutex> lock);

  /// Barrier: blocks until every submitted message has been fully
  /// ingested and every posted read has run. After it returns, shard
  /// engine state is safe to read from the calling thread.
  Status Flush();

  /// End-of-stream: Flush, stop the workers, and (when a shard has an
  /// archive) drain its live bundles to it. Idempotent.
  Status Drain();

  size_t num_shards() const { return shards_.size(); }

  /// The shard's engine; see the threading contract above.
  const ProvenanceEngine& shard(size_t i) const {
    return shards_[i]->engine;
  }

  /// The shard's stream-time watermark (same safety rules as shard()).
  Timestamp shard_clock(size_t i) const {
    return shards_[i]->clock.Now();
  }

  // Recovery hooks, valid ONLY between a defer_workers construction and
  // Start(): the single recovering thread owns every shard exclusively.

  /// Mutable shard engine for checkpoint import / WAL replay.
  ProvenanceEngine* mutable_shard(size_t i) {
    return &shards_[i]->engine;
  }
  /// Mutable shard clock, restored to the checkpointed watermark so
  /// replayed and future messages age bundles identically.
  SimulatedClock* mutable_clock(size_t i) { return &shards_[i]->clock; }
  /// Folds recovered messages into the shard's ingested tally so
  /// Stats() continuity survives a restart.
  void SeedIngested(size_t i, uint64_t n);

  /// Mutable shard engine under the flush-barrier contract: callable
  /// after Start(), but only from the serialized Submit/Read/Flush/Drain
  /// thread and only after Flush()/Drain() returned with no Submit or
  /// Read since (the same window in which shard() is readable). Used by
  /// the incremental-checkpoint path, whose ExportDelta advances the
  /// engine's delta cursors.
  ProvenanceEngine* mutable_shard_quiesced(size_t i) {
    return &shards_[i]->engine;
  }

  ShardStatsSnapshot shard_stats(size_t i) const;

  /// The shard's load tracker (never null; thread-safe). The ingest
  /// hot paths feed it; the stats/scrape path calls Evaluate on it.
  obs::ShardLoadTracker* load_tracker(size_t i) const {
    return shards_[i]->load_tracker.get();
  }

  /// Messages accepted for the shard but not yet applied by its worker:
  /// the queue backlog PLUS the batch currently being ingested. This is
  /// the health checker's backlog signal — a worker frozen mid-message
  /// keeps it nonzero even though the queue itself has drained.
  /// Thread-safe.
  size_t shard_in_flight(size_t i) const;

  /// Total messages ingested across shards (approximate while running).
  uint64_t messages_ingested() const;

  /// Live bundles across all shard pools (post-Flush).
  size_t TotalPoolSize() const;

  size_t ApproxMemoryUsage() const;

  /// Per-component footprint summed across shards (post-Flush, like
  /// every other direct engine read).
  MemoryBreakdown MemoryUsage() const;

 private:
  struct PendingRead;
  /// One entry of a shard's queue: a message, or a Read when `read` is
  /// set.
  struct Item {
    Message msg;
    PendingRead* read = nullptr;
  };

  struct Shard {
    Shard(const EngineOptions& engine_options, BundleArchive* archive,
          size_t queue_capacity)
        : engine(engine_options, &clock, archive),
          queue(queue_capacity) {}

    /// Advanced only by the worker thread (per-shard stream time).
    SimulatedClock clock;
    ProvenanceEngine engine;
    BoundedSpscQueue<Item> queue;
    std::thread worker;

    /// Flush barrier: messages submitted but not yet ingested, and
    /// reads queued but not yet run (all guarded by mu).
    std::mutex mu;
    std::condition_variable idle;
    uint64_t in_flight = 0;
    uint64_t reads_in_flight = 0;
    Status error;  // first worker-side ingest error

    AtomicCounter enqueued;
    AtomicCounter ingested;
    AtomicCounter batches;

    /// Per-shard load accounting for health verdicts (always present).
    std::unique_ptr<obs::ShardLoadTracker> load_tracker;

    // Observability handles (null without a registry; never owned).
    obs::Counter* ingested_counter = nullptr;
    obs::Gauge* depth_gauge = nullptr;
  };

  void WorkerLoop(size_t index);
  /// Marks `messages` ingested and `reads` run on the flush barrier.
  void Settle(Shard* shard, size_t messages, uint64_t reads);

  ShardedEngineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool started_ = false;
  bool drained_ = false;

  // Shared across shards (null without a registry; never owned).
  obs::Counter* backpressure_counter_ = nullptr;
  obs::Counter* batches_counter_ = nullptr;
  obs::HistogramMetric* batch_size_hist_ = nullptr;
};

}  // namespace microprov

#endif  // MICROPROV_SERVICE_SHARDED_ENGINE_H_
