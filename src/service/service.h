#ifndef MICROPROV_SERVICE_SERVICE_H_
#define MICROPROV_SERVICE_SERVICE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/memory_usage.h"
#include "common/status.h"
#include "common/statusor.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "obs/shard_health.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "query/query_processor.h"
#include "recovery/checkpoint.h"
#include "service/sharded_engine.h"
#include "storage/bundle_store.h"

namespace microprov {

/// Configuration for microprov::Service.
struct ServiceOptions {
  /// Ingestion partitions (see ShardedEngineOptions).
  size_t num_shards = 4;
  size_t queue_capacity = 1024;
  size_t max_batch = 64;
  /// Engine configuration for the deployment as a whole: the pool limit
  /// is the *total* live-bundle budget. Open() hands each shard a 1/N
  /// slice (EngineOptions::ShardSlice), so memory and per-message match
  /// work stay what you configured regardless of num_shards.
  EngineOptions engine;
  /// Eq. 7 ranking weights used by Search.
  QueryWeights weights;
  /// When non-empty, each shard gets an on-disk BundleStore under
  /// `<archive_dir>/shard-<i>`; bundles leaving memory (refinement,
  /// Drain) land there and stay searchable.
  std::string archive_dir;

  /// Opt-in ingest tracing: keep the last `trace_capacity` per-message
  /// match/placement decisions (Eq. 1 candidate scores) in a ring
  /// buffer, dumpable via TraceJsonl(). 0 disables tracing entirely —
  /// the ingest path then takes no per-message trace cost.
  size_t trace_capacity = 0;
  /// Trace 1 in N ingested messages (1 = every message, the historical
  /// behavior). Sampled-out messages skip candidate collection too, so
  /// tracing can stay enabled under production ingest rates.
  size_t trace_sample_every = 1;

  /// Opt-in query tracing: keep the last `query_trace_capacity`
  /// span-annotated QueryTraceEvents (term ids, per-shard candidate
  /// counts, per-stage nanoseconds), sampled 1 in
  /// `query_trace_sample_every`. Dump via QueryTraceJsonl() or GET
  /// /debug/traces.
  size_t query_trace_capacity = 0;
  size_t query_trace_sample_every = 1;
  /// Slow-query log: queries with end-to-end latency over this
  /// threshold are ALWAYS captured with their full span tree (even
  /// when sampled out), into a separate ring of the last
  /// QueryTraceSink::kSlowCapacity. 0 disables the slow log.
  uint64_t slow_query_nanos = 0;

  /// Thresholds behind the per-shard ok/degraded/stalled verdicts.
  obs::ShardHealthOptions health;

  /// Embedded HTTP exposition server: -1 disables it (default), 0
  /// binds an ephemeral port (see Service::http_port()), otherwise the
  /// given port. Serves GET /metrics, /healthz, /statusz,
  /// /debug/traces, /debug/slow.
  int http_port = -1;
  std::string http_bind_address = "127.0.0.1";

  /// Crash recovery: set `durability.dir` to make the service
  /// recoverable. Open() then resolves the newest valid checkpoint
  /// chain (base snapshot + incremental deltas) from that directory,
  /// replays the per-shard WAL tail through the (deterministic) shard
  /// engines, and resumes logging. Ingest hands each message to the
  /// group-commit flusher only AFTER its shard accepted it — so the
  /// WAL can never resurrect a message the pipeline rejected — and a
  /// checkpoint runs every `durability.checkpoint_every_messages`
  /// accepted messages (plus on Drain, always a full base). Durability
  /// is asynchronous: Flush() doubles as the durability barrier,
  /// returning once every accepted message is both ingested and
  /// flushed to the WAL files (synced too in power-loss mode). Keep
  /// this directory distinct from `archive_dir`; both participate in
  /// recovery (the checkpoint references bundles the stores already
  /// hold).
  recovery::DurabilityOptions durability;
};

/// Aggregate service statistics. Safe to read at any time, including
/// while shard workers run: every field is backed by atomics or
/// mutex-guarded queue state, never by direct engine reads.
/// `memory_bytes` is refreshed at refinement/Flush/Drain checkpoints
/// (computing it is O(pool)), so it may trail the live value.
struct ServiceStats {
  uint64_t messages_ingested = 0;
  size_t live_bundles = 0;
  uint64_t archived_bundles = 0;
  size_t memory_bytes = 0;
  /// Per-component breakdown of `memory_bytes`, summed over shards
  /// (same refresh cadence; text_index_bytes stays 0 — the service has
  /// no flat text index). `memory.arena_bytes` is what
  /// EngineOptions::memory.index_arena_bytes bounds.
  MemoryBreakdown memory;
  /// Messages currently waiting in shard queues (sum over shards).
  size_t queue_depth = 0;
  /// Ingest calls that blocked on a full shard queue (backpressure).
  uint64_t backpressure_stalls = 0;
  // Durability progress (all 0 when durability is disabled).
  uint64_t wal_appended_messages = 0;
  uint64_t wal_appended_bytes = 0;
  uint64_t checkpoints_installed = 0;
  /// Messages recovered from the WAL tail when this service opened.
  uint64_t replayed_messages = 0;
  std::vector<ShardStatsSnapshot> shards;
  /// Per-shard load + health verdicts (EWMA rates, queue high-water
  /// marks, WAL flusher lag). Evaluated fresh on every Stats() call.
  std::vector<obs::ShardHealthSnapshot> shard_health;
  /// Queries served (0 until query tracing is enabled).
  uint64_t queries_traced = 0;
  uint64_t slow_queries = 0;
};

/// The one public entry point to microprov: owns the clock, the
/// sharded ingestion pipeline, the per-shard archives, and the query
/// path, so callers no longer wire ProvenanceEngine +
/// BundleQueryProcessor + BundleStore by hand.
///
///   auto service_or = Service::Open({.num_shards = 4});
///   service->Ingest(msg);                                // non-blocking*
///   service->Search({.text = "#redsox", .k = 10});       // sees every Ingest
///   service->Drain();                                    // end-of-stream
///
/// (*) Ingest enqueues onto the message's shard and returns; it blocks
/// only when that shard's queue is full (backpressure). The returned
/// IngestResult therefore reports the routing decision (`shard`), not
/// the bundle placement, which the shard worker resolves asynchronously
/// — callers needing per-message placement use ProvenanceEngine
/// directly.
///
/// Thread contract: any thread may call any method, concurrently. Ingest,
/// Flush, Checkpoint and Drain are serialized by the service lock.
/// Search holds that lock only to queue one read per shard; the shard
/// workers then run it between ingest batches, so every Search sees
/// every message whose Ingest returned before the Search began, and
/// concurrent Searches run on the shard workers in parallel.
class Service {
 public:
  static StatusOr<std::unique_ptr<Service>> Open(
      const ServiceOptions& options);

  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Routes the message to its shard and enqueues it, blocking on a full
  /// queue. Fails with FailedPrecondition after Drain().
  StatusOr<IngestResult> Ingest(const Message& msg);

  /// Cross-shard top-k bundle retrieval, run on the shard workers (after
  /// Drain, on the caller). A zero `query.now` defaults to the service
  /// clock (latest ingested message date).
  StatusOr<std::vector<BundleSearchResult>> Search(const BundleQuery& query);

  /// Barrier: returns once every accepted message is ingested.
  Status Flush();

  /// Durably checkpoints the full service state: quiesces ingest (flush
  /// barrier), flushes the bundle stores (and fsyncs them when
  /// `durability.wal_sync_every_append` is set), serializes every
  /// shard's engine state, installs the snapshot atomically, and
  /// truncates the WAL epochs it supersedes. Requires durability to be
  /// configured.
  Status Checkpoint();

  /// End-of-stream: flushes, stops shard workers, and (with an archive
  /// configured) moves every live bundle to disk. Search keeps working
  /// afterwards; Ingest does not. Idempotent.
  Status Drain();

  /// The service clock: date of the newest message accepted by Ingest.
  Timestamp Now() const { return clock_.value(); }

  size_t num_shards() const { return sharded_->num_shards(); }

  /// Read-only view of the pipeline (tests, benches). Only safe to
  /// inspect shard engines after Flush()/Drain().
  const ShardedEngine& sharded() const { return *sharded_; }

  ServiceStats Stats() const;

  /// Every metric the deployment registered, in Prometheus text
  /// exposition format (one scrape). Thread-safe at any time.
  std::string MetricsText() const { return registry_->PrometheusText(); }

  /// The same snapshot as a JSON document.
  std::string MetricsJson() const { return registry_->Json(); }

  /// The registry itself (read access for embedders exporting through
  /// their own telemetry pipeline).
  obs::MetricsRegistry* metrics() const { return registry_.get(); }

  /// The ingest trace ring, or nullptr when `trace_capacity` was 0.
  const obs::TraceSink* trace() const { return trace_.get(); }

  /// The durability layer, or nullptr when `durability.dir` was empty.
  /// Safe to inspect after Open returns and between service calls
  /// (recovery/replay statistics, checkpoint sequence).
  const recovery::DurabilityManager* durability() const {
    return durability_.get();
  }

  /// JSONL dump of the buffered ingest trace (empty string when tracing
  /// is disabled). Thread-safe at any time.
  std::string TraceJsonl() const {
    return trace_ != nullptr ? trace_->ToJsonl() : std::string();
  }

  /// The query trace ring, or nullptr when both query_trace_capacity
  /// and slow_query_nanos were 0.
  const obs::QueryTraceSink* query_trace() const {
    return query_trace_.get();
  }

  /// JSONL dumps of the sampled query traces / the slow-query log
  /// (empty when query tracing is disabled). Thread-safe at any time.
  std::string QueryTraceJsonl() const {
    return query_trace_ != nullptr ? query_trace_->ToJsonl()
                                   : std::string();
  }
  std::string SlowQueryJsonl() const {
    return query_trace_ != nullptr ? query_trace_->SlowJsonl()
                                   : std::string();
  }

  /// Evaluates every shard's load tracker against the current queue /
  /// WAL / arena signals, refreshes the health gauges, and returns the
  /// verdicts. Thread-safe at any time (reads only atomics and
  /// mutex-guarded queue state, like Stats()).
  std::vector<obs::ShardHealthSnapshot> Health() const;

  /// The bound exposition port (ephemeral ports resolved), or 0 when
  /// the HTTP server is disabled.
  uint16_t http_port() const {
    return exporter_ != nullptr ? exporter_->port() : 0;
  }

  /// Routes one exposition request ("/metrics", "/healthz", ...). The
  /// HTTP server calls this; tests can call it directly without a
  /// socket.
  obs::HttpResponse HandleHttp(std::string_view path,
                               std::string_view query) const;

 private:
  explicit Service(const ServiceOptions& options);

  /// Wall time of each recovery stage of Open, exported once per Open
  /// as microprov_recovery_stage_nanos{stage=...}.
  struct RecoveryStages {
    int64_t archive_open = 0;
    int64_t checkpoint_load = 0;
    int64_t import = 0;
    int64_t wal_read = 0;
    int64_t replay = 0;
  };

  /// Checkpoint import + WAL replay into the (not yet started) shard
  /// engines; called from Open with exclusive ownership. Replays the
  /// durable prefix (largest contiguous acceptance sequence), dedupes
  /// records across crash incarnations, and flags the tail dirty when
  /// it held torn bytes, orphans (records past the contiguous
  /// watermark), or duplicates — Open then installs a fresh base
  /// checkpoint before re-opening the WAL, which epoch-bumps past the
  /// damaged segments so they are never replayed again. Times its
  /// own stages (import, wal_read, replay) into *stages.
  Status Recover(RecoveryStages* stages);
  /// Checkpoint body; caller holds mu_ (or has exclusive ownership
  /// during Open). `force_base` writes a full snapshot even when the
  /// incremental-checkpoint policy would pick a delta.
  Status CheckpointLocked(bool force_base = false);

  /// Per-shard health inputs + gauge refresh; shared by Health() and
  /// the /statusz JSON builder.
  obs::ShardHealthSnapshot EvaluateShard(size_t i) const;
  std::string StatusJson() const;

  ServiceOptions options_;
  /// Serializes Ingest/Flush/Checkpoint/Drain and Search's enqueue.
  std::mutex mu_;
  AtomicWatermark clock_;
  /// Owns every metric; declared before (destroyed after) all the
  /// components holding instrument pointers into it.
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::TraceSink> trace_;
  std::unique_ptr<obs::QueryTraceSink> query_trace_;
  std::vector<std::unique_ptr<BundleStore>> stores_;
  std::unique_ptr<recovery::DurabilityManager> durability_;
  std::unique_ptr<ShardedEngine> sharded_;
  /// One per shard, bound to the shard's engine and store; built in Open.
  std::vector<BundleQueryProcessor> processors_;
  /// Per-request query metrics, observed once per Search call.
  obs::Counter* query_requests_counter_ = nullptr;
  obs::HistogramMetric* query_latency_hist_ = nullptr;
  obs::HistogramMetric* query_fanout_hist_ = nullptr;
  /// Messages accepted by Ingest over the service's whole lifetime,
  /// including recovered ones (guarded by mu_; checkpointed).
  uint64_t accepted_ = 0;
  uint64_t accepted_since_checkpoint_ = 0;
  /// Recover() found a dirty WAL tail (torn bytes, orphaned or
  /// duplicate sequences); Open must install a base checkpoint before
  /// StartWal so the damaged epochs are retired.
  bool recovered_tail_dirty_ = false;
  /// A delta install failed after ExportDelta consumed the dirty sets;
  /// the next checkpoint must be a full base or the chain would have a
  /// hole.
  bool checkpoint_force_base_ = false;
  /// Gauge handles for TSan-safe Stats() aggregation (per shard).
  std::vector<obs::Gauge*> pool_gauges_;
  std::vector<obs::Gauge*> memory_gauges_;
  std::vector<obs::Gauge*> store_gauges_;
  /// Per-component memory gauges backing ServiceStats::memory, indexed
  /// [shard] for each MemoryBreakdown field the engine publishes.
  std::vector<obs::Gauge*> mem_pool_gauges_;
  std::vector<obs::Gauge*> mem_index_gauges_;
  std::vector<obs::Gauge*> mem_arena_gauges_;
  std::vector<obs::Gauge*> mem_dict_gauges_;
  /// Durability counters cached for the same reason (null when
  /// durability is disabled).
  obs::Counter* wal_appends_counter_ = nullptr;
  obs::Counter* wal_bytes_counter_ = nullptr;
  obs::Counter* checkpoints_counter_ = nullptr;
  obs::Counter* replayed_counter_ = nullptr;
  /// Whole CheckpointLocked call, and its barrier/capture/install
  /// stages, which sum to it.
  obs::HistogramMetric* checkpoint_hist_ = nullptr;
  obs::HistogramMetric* checkpoint_barrier_hist_ = nullptr;
  obs::HistogramMetric* checkpoint_capture_hist_ = nullptr;
  obs::HistogramMetric* checkpoint_install_hist_ = nullptr;
  /// Per-shard health gauges refreshed by Health() (0=ok, 1=degraded,
  /// 2=stalled) plus the load stats behind them.
  std::vector<obs::Gauge*> health_gauges_;
  std::vector<obs::Gauge*> ingest_rate_gauges_;
  std::vector<obs::Gauge*> query_rate_gauges_;
  std::vector<obs::Gauge*> queue_hwm_gauges_;
  std::vector<obs::Gauge*> stall_nanos_gauges_;
  /// Each shard's arena budget slice, for the health arena-pressure
  /// input (0 = unbudgeted).
  uint64_t shard_arena_budget_bytes_ = 0;
  bool drained_ = false;
  /// Declared after the components the scrape handlers read, so it is
  /// destroyed first (the HTTP server joins its accept loop) and a late
  /// scrape never sees a half-torn-down service.
  std::unique_ptr<obs::HttpExporter> exporter_;
};

}  // namespace microprov

#endif  // MICROPROV_SERVICE_SERVICE_H_
