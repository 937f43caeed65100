#ifndef MICROPROV_CORE_ENGINE_H_
#define MICROPROV_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/memory_usage.h"
#include "common/slab_arena.h"
#include "common/status.h"
#include "common/statusor.h"
#include "core/edge_log.h"
#include "core/engine_state.h"
#include "core/indicant_dictionary.h"
#include "core/matcher.h"
#include "core/pool.h"
#include "core/stats.h"
#include "core/summary_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace microprov {

/// The paper's three experimental configurations (Section VI-A).
enum class IndexConfig {
  /// No pool limit, no bundle-size cap: the ground-truth baseline.
  kFullIndex,
  /// Pool refinement (Alg. 3) without the bundle-size constraint.
  kPartialIndex,
  /// Pool refinement plus the bundle-size constraint ("Bundle Limit").
  kBundleLimit,
};

std::string_view IndexConfigToString(IndexConfig config);

/// The engine's memory knobs, consolidated and validated in one place
/// (previously scattered: the pool bound lived in PoolOptions, index
/// memory had no bound at all). All three are *total* budgets when used
/// through microprov::Service — ShardSlice hands each shard its 1/N.
/// Zeros keep the paper's original behavior: count-bounded pool,
/// unbounded index arena.
struct MemoryBudget {
  /// Byte ceiling for live bundle storage (0 = count-bounded only).
  /// Becomes PoolOptions::max_pool_bytes on the engine's pool.
  size_t pool_bytes = 0;
  /// Byte ceiling for the shard posting arena backing the summary
  /// index (0 = unbounded). When the arena is at budget and cannot
  /// recycle, ingest triggers pool refinement — eviction frees posting
  /// chains — so the bound degrades gracefully instead of OOMing.
  size_t index_arena_bytes = 0;
  /// Arena block size (the heap-allocation unit). Must be a power of
  /// two in [8 KiB, 256 MiB].
  size_t arena_block_bytes = SlabArena::kDefaultBlockBytes;

  /// Rejects inconsistent budgets (Service::Open surfaces the error as
  /// InvalidArgument instead of silently misbehaving).
  Status Validate() const;
};

struct EngineOptions {
  IndexConfig config = IndexConfig::kPartialIndex;
  MatcherOptions matcher;
  PoolOptions pool;
  /// Memory budgets (pool bytes, index-arena bytes, slab block size).
  /// `memory.pool_bytes` is copied onto the pool at engine construction;
  /// set budgets here, not on `pool`, when using this struct.
  MemoryBudget memory;
  /// Record every connection into the edge log (evaluation harness).
  bool record_edges = true;
  /// Alg. 2 scan window: most-recent members considered for the Eq. 5
  /// similarity argmax (0 = unbounded, exact but O(|B|) per insert).
  size_t allocate_scan_window = 256;

  /// Observability sinks, both optional and never owned; they must
  /// outlive the engine. With `metrics` set the engine registers its
  /// own, the pool's, and the index's instruments there; with `trace`
  /// set every ingested message appends one IngestTraceEvent carrying
  /// the Eq. 1 candidate scores and the final placement decision.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
  /// Shard this engine serves; becomes the `shard="N"` label on
  /// per-instance gauges and the `shard` field of trace events.
  uint32_t shard_index = 0;

  /// Test-only fault injection: when set, Ingest consults it before
  /// touching any state and fails with the returned non-OK status.
  /// Lets durability tests force a shard-level Submit failure and
  /// verify the acceptance invariant (accepted = applied AND logged).
  std::function<Status(const Message&)> ingest_fault_for_test;

  /// Canonical knobs per configuration; `pool_limit`/`bundle_cap`
  /// override the defaults (10k / 300, mirroring the paper's setup).
  static EngineOptions ForConfig(IndexConfig config,
                                 size_t pool_limit = 10000,
                                 size_t bundle_cap = 300);

  /// Per-shard options for an N-way partitioned deployment
  /// (microprov::Service): these options describe the *total* budget,
  /// and the slice divides everything that is defined relative to the
  /// pool — the pool limit itself plus the matcher's candidate and
  /// posting-fanout caps — so N shards together hold the same number of
  /// live bundles and score the same fraction of their pool per message
  /// as one engine would. Leaving the matcher caps absolute would make
  /// every shard do baseline-sized match work over a pool 1/N the size.
  EngineOptions ShardSlice(size_t num_shards) const;
};

/// Result of ingesting one message.
struct IngestResult {
  BundleId bundle = kInvalidBundleId;
  bool created_bundle = false;
  MessageId parent = kInvalidMessageId;
  ConnectionType connection = ConnectionType::kText;
  double match_score = 0.0;
  /// Shard the message was routed to (microprov::Service). Always 0 for
  /// a direct single-engine ingest. When the service ingests
  /// asynchronously, `bundle` stays kInvalidBundleId — placement is
  /// resolved on the shard's worker thread after this result returns.
  uint32_t shard = 0;
};

/// The provenance-based indexing engine (Fig. 4): an in-memory summary
/// index + bundle pool fed by the message stream, with an optional on-disk
/// archive for bundles leaving memory. Acts as "an additional engine
/// besides the common micro-blog message retrieval counterpart" — it never
/// blocks on the text-search index.
///
/// Single-writer: Ingest is not thread-safe (matches the paper's design;
/// the stream is totally ordered by date).
class ProvenanceEngine {
 public:
  /// `clock` provides "now" for freshness and aging decisions and must
  /// outlive the engine. `archive` may be nullptr (no disk back-end).
  ProvenanceEngine(const EngineOptions& options, const Clock* clock,
                   BundleArchive* archive);

  ProvenanceEngine(const ProvenanceEngine&) = delete;
  ProvenanceEngine& operator=(const ProvenanceEngine&) = delete;

  /// Alg. 1 end-to-end: match -> allocate (Alg. 2) -> index update ->
  /// maybe refine (Alg. 3). Returns where the message landed.
  StatusOr<IngestResult> Ingest(const Message& msg);

  /// Flushes every live bundle to the archive (end-of-stream).
  Status Drain();

  /// The durable state for checkpointing, borrowed from the live pool
  /// and dictionary: bundles ascending by id, terms in TermId order.
  /// Nothing is copied, so the view is valid only until this engine next
  /// changes (Ingest, Drain, ImportState); encode it before then. The
  /// engine must be quiesced (no concurrent Ingest) while it is read.
  EngineStateView ExportState() const;

  /// Everything that changed since the delta cursor was last reset:
  /// dictionary terms interned past the per-type cursors, bundles
  /// touched by Ingest (tracked per message), bundles removed by
  /// refinement/drain, and the absolute scalar counters. Advances the
  /// cursors and clears the dirty sets, so consecutive calls yield a
  /// chain of disjoint deltas (the incremental-checkpoint chain).
  /// Borrows like ExportState, under the same lifetime and quiescence
  /// rules.
  EngineDeltaView ExportDelta();

  /// Re-arms delta tracking at the engine's current state (after a full
  /// ExportState was captured as a base checkpoint): the next
  /// ExportDelta reports only changes made after this call.
  void ResetDeltaCursor();

  /// Restores a decoded checkpoint state. The engine must be
  /// fresh — nothing ingested, empty pool, empty dictionary — because
  /// import rebuilds the TermId spaces and the summary index from
  /// scratch; importing over live state would corrupt both. Each bundle
  /// record is decoded once, onto this engine's dictionary. After a
  /// successful import, ingesting the same post-checkpoint message
  /// sequence reproduces the source engine (the recovery contract).
  Status ImportState(const EngineState& state);

  const BundlePool& pool() const { return pool_; }
  const SummaryIndex& summary_index() const { return index_; }
  const IndicantDictionary& dictionary() const { return dict_; }
  const EdgeLog& edge_log() const { return edge_log_; }
  const StageTimers& timers() const { return timers_; }
  const EngineOptions& options() const { return options_; }
  BundleArchive* archive() const { return archive_; }
  uint64_t messages_ingested() const { return ingested_; }
  const SlabArena& arena() const { return arena_; }

  /// Per-component in-memory footprint (Fig. 11(a), itemized): pool
  /// bundles, summary-index tables, posting-arena blocks, dictionary.
  /// `text_index_bytes` is 0 here — the flat message-search index lives
  /// outside the engine.
  MemoryBreakdown MemoryUsage() const;

  /// MemoryUsage().total(), kept for callers that want one number.
  size_t ApproxMemoryUsage() const;

  /// Re-publishes the `microprov_engine_memory_bytes` gauge from
  /// ApproxMemoryUsage(). O(pool size), so it is not run per message;
  /// the engine calls it after each refinement pass and at Drain, and
  /// owners may call it at their own flush points.
  void RefreshMemoryMetrics();

 private:
  EngineOptions options_;
  const Clock* clock_;
  BundleArchive* archive_;
  // The shard's interning dictionary: one id space shared by the index,
  // the pool's bundles, and every message staged through Ingest.
  // Declared before index_/pool_, which hold pointers into it.
  IndicantDictionary dict_;
  // The shard posting arena: every summary-index posting chain lives in
  // its blocks, bounded by options_.memory.index_arena_bytes. Declared
  // before index_, which holds a pointer into it (and frees its chains
  // first on destruction).
  SlabArena arena_;
  SummaryIndex index_;
  BundlePool pool_;
  EdgeLog edge_log_;
  StageTimers timers_;
  uint64_t ingested_ = 0;

  // Incremental-checkpoint tracking (ExportDelta/ResetDeltaCursor):
  // per-type count of terms already exported, bundles touched since the
  // cursor, and bundles removed from the pool since the cursor (fed by
  // the pool's removal listener).
  size_t delta_term_cursor_[kNumIndicantTypes] = {};
  std::unordered_set<BundleId> dirty_bundles_;
  std::vector<BundleId> removed_bundles_;

  // Observability handles (null unless options_.metrics was set).
  obs::HistogramMetric* match_hist_ = nullptr;
  obs::HistogramMetric* placement_hist_ = nullptr;
  obs::HistogramMetric* refinement_hist_ = nullptr;
  obs::Counter* ingested_counter_ = nullptr;
  obs::Gauge* memory_gauge_ = nullptr;
  // Per-component memory gauges (refreshed with memory_gauge_); the
  // service sums these across shards for its TSan-safe Stats() view.
  obs::Gauge* mem_pool_gauge_ = nullptr;
  obs::Gauge* mem_index_gauge_ = nullptr;
  obs::Gauge* mem_arena_gauge_ = nullptr;
  obs::Gauge* mem_dict_gauge_ = nullptr;
  // Arena internals (allocated/used/free bytes in this shard's arena).
  obs::Gauge* arena_allocated_gauge_ = nullptr;
  obs::Gauge* arena_used_gauge_ = nullptr;
  obs::Gauge* arena_free_gauge_ = nullptr;
  obs::Counter* arena_pressure_counter_ = nullptr;
  // Scratch reused across Ingest calls: the staged (interned) copy of
  // the incoming message, the matcher's candidate buffers, and the
  // trace score list.
  Message staged_;
  MatcherScratch scratch_;
  std::vector<MatchResult> trace_scored_;
};

}  // namespace microprov

#endif  // MICROPROV_CORE_ENGINE_H_
