#include "core/engine.h"

#include <algorithm>

#include "common/string_util.h"
#include "core/allocator.h"
#include "storage/bundle_codec.h"

namespace microprov {

std::string_view IndexConfigToString(IndexConfig config) {
  switch (config) {
    case IndexConfig::kFullIndex:
      return "Full Index";
    case IndexConfig::kPartialIndex:
      return "Partial Index";
    case IndexConfig::kBundleLimit:
      return "Bundle Limit";
  }
  return "?";
}

Status MemoryBudget::Validate() const {
  if (arena_block_bytes < (8u << 10) || arena_block_bytes > (256u << 20) ||
      (arena_block_bytes & (arena_block_bytes - 1)) != 0) {
    return Status::InvalidArgument(
        "memory.arena_block_bytes must be a power of two in "
        "[8 KiB, 256 MiB]");
  }
  if (index_arena_bytes > 0 && index_arena_bytes < 2 * arena_block_bytes) {
    // One block can't both hold the working set and leave room for the
    // transient over-budget grant eviction needs; a "budget" below two
    // blocks would thrash refinement on every append.
    return Status::InvalidArgument(
        "memory.index_arena_bytes must be 0 (unbounded) or at least "
        "twice memory.arena_block_bytes");
  }
  if (pool_bytes > 0 && pool_bytes < (64u << 10)) {
    return Status::InvalidArgument(
        "memory.pool_bytes must be 0 (unbounded) or at least 64 KiB");
  }
  return Status::OK();
}

EngineOptions EngineOptions::ForConfig(IndexConfig config,
                                       size_t pool_limit,
                                       size_t bundle_cap) {
  EngineOptions options;
  options.config = config;
  switch (config) {
    case IndexConfig::kFullIndex:
      options.pool.max_pool_size = 0;   // never refine
      options.pool.max_bundle_size = 0; // never cap
      break;
    case IndexConfig::kPartialIndex:
      options.pool.max_pool_size = pool_limit;
      options.pool.max_bundle_size = 0;
      break;
    case IndexConfig::kBundleLimit:
      options.pool.max_pool_size = pool_limit;
      options.pool.max_bundle_size = bundle_cap;
      break;
  }
  return options;
}

EngineOptions EngineOptions::ShardSlice(size_t num_shards) const {
  EngineOptions sliced = *this;
  if (num_shards <= 1) return sliced;
  // Floors keep a tiny slice functional: a shard still holds a working
  // set of bundles and still scores more than a handful of candidates.
  if (pool.max_pool_size > 0) {
    sliced.pool.max_pool_size =
        std::max<size_t>(64, pool.max_pool_size / num_shards);
  }
  if (matcher.max_candidates > 0) {
    sliced.matcher.max_candidates =
        std::max<size_t>(16, matcher.max_candidates / num_shards);
  }
  if (matcher.max_posting_fanout > 0) {
    sliced.matcher.max_posting_fanout =
        std::max<size_t>(64, matcher.max_posting_fanout / num_shards);
  }
  // The memory budget divides with everything else: N shards together
  // hold the configured total. Floors keep each slice valid under
  // MemoryBudget::Validate (a functional pool, >= 2 arena blocks).
  if (memory.pool_bytes > 0) {
    sliced.memory.pool_bytes =
        std::max<size_t>(64u << 10, memory.pool_bytes / num_shards);
  }
  if (memory.index_arena_bytes > 0) {
    sliced.memory.index_arena_bytes =
        std::max<size_t>(2 * memory.arena_block_bytes,
                         memory.index_arena_bytes / num_shards);
  }
  return sliced;
}

namespace {

// The consolidated MemoryBudget is the authoritative byte knob: its
// pool ceiling overrides whatever the caller left on PoolOptions, and
// its arena fields become the arena's construction options.
PoolOptions PoolOptionsFor(const EngineOptions& options) {
  PoolOptions pool = options.pool;
  if (options.memory.pool_bytes > 0) {
    pool.max_pool_bytes = options.memory.pool_bytes;
  }
  return pool;
}

SlabArena::Options ArenaOptionsFor(const MemoryBudget& memory) {
  SlabArena::Options arena;
  arena.block_bytes = memory.arena_block_bytes;
  arena.budget_bytes = memory.index_arena_bytes;
  return arena;
}

}  // namespace

ProvenanceEngine::ProvenanceEngine(const EngineOptions& options,
                                   const Clock* clock,
                                   BundleArchive* archive)
    : options_(options),
      clock_(clock),
      archive_(archive),
      arena_(ArenaOptionsFor(options.memory)),
      index_(&dict_, &arena_),
      pool_(PoolOptionsFor(options), &dict_) {
  if (archive_ != nullptr) {
    pool_.ReserveIdsThrough(archive_->MaxBundleId());
  }
  // Incremental checkpoints: every bundle leaving the pool must show up
  // in the next delta's removal list, and must stop being "dirty" (its
  // live image no longer exists to clone).
  pool_.SetRemovalListener([this](BundleId id) {
    dirty_bundles_.erase(id);
    removed_bundles_.push_back(id);
  });
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* registry = options_.metrics;
    const std::string shard_label =
        StringPrintf("shard=\"%u\"", options_.shard_index);
    dict_.BindMetrics(registry, shard_label);
    pool_.BindMetrics(registry, shard_label);
    index_.BindMetrics(registry, shard_label);
    match_hist_ = registry->GetHistogram(
        "microprov_ingest_stage_nanos", "stage=\"bundle_match\"",
        "Per-message ingest stage latency (Fig. 13 stages)");
    placement_hist_ = registry->GetHistogram(
        "microprov_ingest_stage_nanos", "stage=\"message_placement\"");
    refinement_hist_ = registry->GetHistogram(
        "microprov_ingest_stage_nanos", "stage=\"memory_refinement\"");
    ingested_counter_ =
        registry->GetCounter("microprov_engine_messages_total", "",
                             "Messages ingested across all shards");
    memory_gauge_ = registry->GetGauge(
        "microprov_engine_memory_bytes", shard_label,
        "Approximate pool + index footprint (refreshed at "
        "refinement/flush, not per message)");
    mem_pool_gauge_ = registry->GetGauge(
        "microprov_engine_memory_component_bytes",
        shard_label + ",component=\"pool\"",
        "Approximate per-component engine footprint (MemoryBreakdown)");
    mem_index_gauge_ = registry->GetGauge(
        "microprov_engine_memory_component_bytes",
        shard_label + ",component=\"summary_index\"");
    mem_arena_gauge_ = registry->GetGauge(
        "microprov_engine_memory_component_bytes",
        shard_label + ",component=\"arena\"");
    mem_dict_gauge_ = registry->GetGauge(
        "microprov_engine_memory_component_bytes",
        shard_label + ",component=\"dictionary\"");
    arena_allocated_gauge_ = registry->GetGauge(
        "microprov_arena_bytes", shard_label + ",kind=\"allocated\"",
        "Shard posting-arena bytes: block memory held / reserved by "
        "live chunks / parked on free lists");
    arena_used_gauge_ = registry->GetGauge(
        "microprov_arena_bytes", shard_label + ",kind=\"used\"");
    arena_free_gauge_ = registry->GetGauge(
        "microprov_arena_bytes", shard_label + ",kind=\"free\"");
    arena_pressure_counter_ = registry->GetCounter(
        "microprov_arena_pressure_refinements_total", "",
        "Refinement passes forced by index-arena memory pressure");
  }
}

StatusOr<IngestResult> ProvenanceEngine::Ingest(const Message& msg) {
  if (options_.ingest_fault_for_test) {
    MICROPROV_RETURN_IF_ERROR(options_.ingest_fault_for_test(msg));
  }
  const Timestamp now = clock_->Now();
  IngestResult local;
  Bundle* bundle = nullptr;
  // Sampling is decided up front so sampled-out messages skip the
  // candidate-score collection below, not just the final Record.
  const bool tracing =
      options_.trace != nullptr && options_.trace->ShouldSample();

  // Stage the message and intern its indicants once; every downstream
  // step (candidate fetch, Eq. 1, Alg. 2, index update, bundle
  // summaries) then works in the shard's TermId space without touching
  // strings. staged_ is a member so its buffers persist across calls.
  staged_ = msg;
  dict_.InternMessage(&staged_);

  // Stage boundaries are chained monotonic reads: four clock calls per
  // message cover all three stages, feeding both the cumulative
  // StageTimers (Fig. 13 harness) and the latency histograms.
  const int64_t t0 = MonotonicNanos();

  // Stage 1: bundle match (Alg. 1 steps 1-2).
  std::optional<MatchResult> match =
      FindBestBundle(staged_, index_, pool_, now, options_.matcher,
                     tracing ? &trace_scored_ : nullptr, &scratch_);
  if (match) {
    bundle = pool_.Get(match->bundle);
    local.bundle = match->bundle;
    local.match_score = match->score;
  }

  const int64_t t1 = MonotonicNanos();

  // Alg. 1 step 3 input: the index consumes the staged message before
  // placement moves it into the bundle. Same index state as updating
  // after insertion — AddMessage only needs the bundle id.
  // The receiving bundle's footprint before AddMessage; the growth is
  // fed to the pool so its byte ceiling tracks without O(pool) rescans.
  size_t bundle_bytes_before = 0;
  if (bundle == nullptr) {
    // Stage 2: bundle creation.
    bundle = pool_.Create();
    local.bundle = bundle->id();
    local.created_bundle = true;
    index_.AddMessage(bundle->id(), staged_,
                      Bundle::kSummaryKeywordsPerMessage);
    bundle_bytes_before = bundle->ApproxMemoryUsage();
    bundle->AddMessage(std::move(staged_), kInvalidMessageId,
                       ConnectionType::kText, 0.0f);
  } else {
    // Stage 2: message placement (Alg. 2).
    Placement placement =
        AllocateMessage(*bundle, staged_, options_.matcher.weights,
                        options_.allocate_scan_window);
    local.parent = placement.parent;
    local.connection = placement.type;
    index_.AddMessage(bundle->id(), staged_,
                      Bundle::kSummaryKeywordsPerMessage);
    bundle_bytes_before = bundle->ApproxMemoryUsage();
    bundle->AddMessage(std::move(staged_), placement.parent,
                       placement.type,
                       static_cast<float>(placement.score));
    if (options_.record_edges) {
      edge_log_.Record(Edge{placement.parent, msg.id, placement.type,
                            static_cast<float>(placement.score)});
    }
  }
  pool_.NoteMessageAdded(bundle->ApproxMemoryUsage() - bundle_bytes_before);
  dirty_bundles_.insert(local.bundle);

  // Bundle-size constraint (Section V-B): cap reached -> closed.
  const size_t cap = pool_.options().max_bundle_size;
  if (cap > 0 && bundle->size() >= cap && !bundle->closed()) {
    bundle->Close();
    pool_.RecordClosed();
  }

  const int64_t t2 = MonotonicNanos();

  // Stage 3: memory refinement (Alg. 3) when the pool outgrows M — in
  // count or bytes — or when the posting arena is over its byte budget.
  // Arena pressure forces ranked evictions even if the pool is under
  // its own targets: evicted bundles free their posting chains back to
  // the arena's free lists, which is the only way arena memory shrinks.
  const bool arena_pressure = arena_.NeedsEviction();
  const bool refined = pool_.NeedsRefinement() || arena_pressure;
  if (refined) {
    size_t min_rank_evictions = 0;
    if (arena_pressure) {
      min_rank_evictions = std::max<size_t>(1, pool_.size() / 64);
      if (arena_pressure_counter_ != nullptr) {
        arena_pressure_counter_->Increment();
      }
    }
    MICROPROV_RETURN_IF_ERROR(
        pool_.Refine(now, &index_, archive_, min_rank_evictions));
  }

  const int64_t t3 = MonotonicNanos();
  timers_.bundle_match_nanos += t1 - t0;
  timers_.message_placement_nanos += t2 - t1;
  timers_.memory_refinement_nanos += t3 - t2;
  if (match_hist_ != nullptr) {
    match_hist_->Observe(t1 - t0);
    placement_hist_->Observe(t2 - t1);
    refinement_hist_->Observe(t3 - t2);
  }
  ++ingested_;
  if (ingested_counter_ != nullptr) ingested_counter_->Increment();
  if (refined) RefreshMemoryMetrics();

  if (tracing) {
    obs::IngestTraceEvent event;
    event.message = msg.id;
    event.date = msg.date;
    event.shard = options_.shard_index;
    event.candidates.reserve(trace_scored_.size());
    for (const MatchResult& scored : trace_scored_) {
      event.candidates.push_back(
          obs::TraceCandidate{scored.bundle, scored.score});
    }
    event.chosen = local.bundle;
    event.created = local.created_bundle;
    event.score = local.match_score;
    event.parent = local.parent;
    event.connection = static_cast<int>(local.connection);
    options_.trace->Record(std::move(event));
  }
  return local;
}

Status ProvenanceEngine::Drain() {
  MICROPROV_RETURN_IF_ERROR(pool_.Drain(&index_, archive_));
  RefreshMemoryMetrics();
  return Status::OK();
}

namespace {

/// Appends the dictionary's surface forms of `type` from TermId `first`
/// on, in TermId order.
void BorrowTermsFrom(const IndicantDictionary& dict, IndicantType type,
                     size_t first, std::vector<std::string_view>* out) {
  const size_t n = dict.NumTerms(type);
  out->reserve(n - first);
  for (size_t id = first; id < n; ++id) {
    out->push_back(dict.Resolve(type, static_cast<TermId>(id)));
  }
}

void SortById(std::vector<const Bundle*>* bundles) {
  std::sort(bundles->begin(), bundles->end(),
            [](const Bundle* a, const Bundle* b) { return a->id() < b->id(); });
}

}  // namespace

EngineStateView ProvenanceEngine::ExportState() const {
  EngineStateView state;
  state.messages_ingested = ingested_;
  state.next_bundle_id = pool_.next_id();
  state.pool_stats = pool_.stats();
  for (int t = 0; t < kNumIndicantTypes; ++t) {
    BorrowTermsFrom(dict_, static_cast<IndicantType>(t), 0,
                    &state.terms[t]);
  }
  state.bundles.reserve(pool_.size());
  for (const auto& [id, bundle] : pool_.bundles()) {
    state.bundles.push_back(bundle.get());
  }
  SortById(&state.bundles);
  return state;
}

EngineDeltaView ProvenanceEngine::ExportDelta() {
  EngineDeltaView delta;
  delta.messages_ingested = ingested_;
  delta.next_bundle_id = pool_.next_id();
  delta.pool_stats = pool_.stats();
  for (int t = 0; t < kNumIndicantTypes; ++t) {
    const IndicantType type = static_cast<IndicantType>(t);
    delta.base_terms[t] = static_cast<uint32_t>(delta_term_cursor_[t]);
    BorrowTermsFrom(dict_, type, delta_term_cursor_[t], &delta.new_terms[t]);
    delta_term_cursor_[t] = dict_.NumTerms(type);
  }
  delta.removed = std::move(removed_bundles_);
  removed_bundles_.clear();
  std::sort(delta.removed.begin(), delta.removed.end());
  delta.bundles.reserve(dirty_bundles_.size());
  for (BundleId id : dirty_bundles_) {
    const Bundle* bundle = pool_.Get(id);
    if (bundle != nullptr) delta.bundles.push_back(bundle);
  }
  dirty_bundles_.clear();
  SortById(&delta.bundles);
  return delta;
}

void ProvenanceEngine::ResetDeltaCursor() {
  for (int t = 0; t < kNumIndicantTypes; ++t) {
    delta_term_cursor_[t] =
        dict_.NumTerms(static_cast<IndicantType>(t));
  }
  dirty_bundles_.clear();
  removed_bundles_.clear();
}

Status ProvenanceEngine::ImportState(const EngineState& state) {
  if (ingested_ != 0 || pool_.size() != 0 || dict_.TotalTerms() != 0) {
    return Status::FailedPrecondition(
        "ImportState requires a fresh engine");
  }
  // Rebuild the TermId spaces first: interning the checkpointed surface
  // forms in order reproduces the exact ids every bundle summary and
  // index posting was built against.
  for (int t = 0; t < kNumIndicantTypes; ++t) {
    const IndicantType type = static_cast<IndicantType>(t);
    for (size_t i = 0; i < state.terms[t].size(); ++i) {
      const TermId id = dict_.Intern(type, state.terms[t][i]);
      if (id != static_cast<TermId>(i)) {
        return Status::Corruption("dictionary ids not dense on import");
      }
    }
  }
  // Each record is decoded once, straight onto the shard dictionary.
  for (const BundleRecord& record : state.bundles) {
    auto decoded_or = DecodeBundle(record.bytes, &dict_);
    if (!decoded_or.ok()) return decoded_or.status();
    Bundle* bundle = pool_.Adopt(std::move(*decoded_or));
    if (bundle == nullptr) {
      return Status::Corruption("duplicate bundle id on import");
    }
    // The summary index is derived state: re-register each member the
    // same way Ingest did.
    for (const BundleMessage& bm : bundle->messages()) {
      index_.AddMessage(bundle->id(), bm.msg,
                        Bundle::kSummaryKeywordsPerMessage);
    }
  }
  pool_.RestoreStats(state.pool_stats);
  if (state.next_bundle_id > 0) {
    pool_.ReserveIdsThrough(state.next_bundle_id - 1);
  }
  ingested_ = state.messages_ingested;
  // The imported state IS the resolved checkpoint: delta tracking
  // restarts from here, so the next ExportDelta extends the chain the
  // snapshot came from.
  ResetDeltaCursor();
  RefreshMemoryMetrics();
  return Status::OK();
}

void ProvenanceEngine::RefreshMemoryMetrics() {
  if (memory_gauge_ == nullptr) return;
  const MemoryBreakdown usage = MemoryUsage();
  memory_gauge_->Set(static_cast<int64_t>(usage.total()));
  mem_pool_gauge_->Set(static_cast<int64_t>(usage.pool_bytes));
  mem_index_gauge_->Set(static_cast<int64_t>(usage.summary_index_bytes));
  mem_arena_gauge_->Set(static_cast<int64_t>(usage.arena_bytes));
  mem_dict_gauge_->Set(static_cast<int64_t>(usage.dictionary_bytes));
  const SlabArena::Stats& arena = arena_.stats();
  arena_allocated_gauge_->Set(static_cast<int64_t>(arena.allocated_bytes));
  arena_used_gauge_->Set(static_cast<int64_t>(arena.used_bytes));
  arena_free_gauge_->Set(static_cast<int64_t>(arena.free_bytes));
}

MemoryBreakdown ProvenanceEngine::MemoryUsage() const {
  MemoryBreakdown usage;
  usage.pool_bytes = pool_.ApproxMemoryUsage();
  usage.summary_index_bytes = index_.ApproxMemoryUsage();
  usage.arena_bytes = arena_.stats().allocated_bytes;
  usage.dictionary_bytes = dict_.ApproxMemoryUsage();
  return usage;
}

size_t ProvenanceEngine::ApproxMemoryUsage() const {
  return MemoryUsage().total();
}

}  // namespace microprov
