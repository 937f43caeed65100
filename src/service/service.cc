#include "service/service.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>

#include "common/clock.h"
#include "common/env.h"
#include "common/string_util.h"
#include "obs/jsonl.h"

namespace microprov {

Service::Service(const ServiceOptions& options)
    : options_(options),
      registry_(std::make_unique<obs::MetricsRegistry>()) {
  if (options_.trace_capacity > 0) {
    trace_ = std::make_unique<obs::TraceSink>(
        options_.trace_capacity, options_.trace_sample_every);
  }
  if (options_.query_trace_capacity > 0 ||
      options_.slow_query_nanos > 0) {
    query_trace_ = std::make_unique<obs::QueryTraceSink>(
        options_.query_trace_capacity, options_.query_trace_sample_every,
        options_.slow_query_nanos);
  }
}

StatusOr<std::unique_ptr<Service>> Service::Open(
    const ServiceOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  // An inconsistent memory budget fails Open up front (InvalidArgument)
  // rather than misbehaving at the first over-budget allocation.
  Status budget = options.engine.memory.Validate();
  if (!budget.ok()) return budget;
  std::unique_ptr<Service> service(new Service(options));

  RecoveryStages stages;
  const int64_t archive_from = MonotonicNanos();
  std::vector<BundleArchive*> archives;
  if (!options.archive_dir.empty()) {
    MICROPROV_RETURN_IF_ERROR(
        Env::Default()->CreateDirIfMissing(options.archive_dir));
    for (size_t i = 0; i < options.num_shards; ++i) {
      BundleStore::Options store_options;
      store_options.dir =
          StringPrintf("%s/shard-%zu", options.archive_dir.c_str(), i);
      auto store_or = BundleStore::Open(store_options);
      if (!store_or.ok()) return store_or.status();
      (*store_or)
          ->BindMetrics(service->registry_.get(),
                        StringPrintf("shard=\"%zu\"", i));
      archives.push_back(store_or->get());
      service->stores_.push_back(std::move(*store_or));
    }
  }
  stages.archive_open = MonotonicNanos() - archive_from;

  ShardedEngineOptions sharded_options;
  sharded_options.num_shards = options.num_shards;
  sharded_options.queue_capacity = options.queue_capacity;
  sharded_options.max_batch = options.max_batch;
  // ServiceOptions::engine describes the whole deployment; each shard
  // gets a 1/N slice of the pool budget and the pool-relative matcher
  // caps so total memory and per-message selectivity stay what the
  // caller configured regardless of shard count.
  sharded_options.engine = options.engine.ShardSlice(options.num_shards);
  sharded_options.engine.metrics = service->registry_.get();
  sharded_options.engine.trace = service->trace_.get();
  sharded_options.health = options.health;
  // Workers start only after recovery has finished mutating shard state.
  sharded_options.defer_workers = true;
  service->shard_arena_budget_bytes_ =
      sharded_options.engine.memory.index_arena_bytes;
  service->sharded_ = std::make_unique<ShardedEngine>(sharded_options,
                                                      std::move(archives));
  service->processors_.reserve(options.num_shards);
  for (size_t i = 0; i < options.num_shards; ++i) {
    service->processors_.emplace_back(
        &service->sharded_->shard(i), options.weights,
        i < service->stores_.size() ? service->stores_[i].get() : nullptr,
        service->registry_.get());
  }
  service->query_requests_counter_ = service->registry_->GetCounter(
      "microprov_query_requests_total", "", "Service::Search calls served");
  service->query_latency_hist_ = service->registry_->GetHistogram(
      "microprov_query_latency_nanos", "",
      "Service::Search call latency, per request");
  service->query_fanout_hist_ = service->registry_->GetHistogram(
      "microprov_query_fanout", "", "Shards consulted per Service::Search");

  if (options.durability.enabled()) {
    const int64_t load_from = MonotonicNanos();
    auto manager_or = recovery::DurabilityManager::Open(
        options.durability, static_cast<uint32_t>(options.num_shards),
        service->registry_.get());
    if (!manager_or.ok()) return manager_or.status();
    stages.checkpoint_load = MonotonicNanos() - load_from;
    service->durability_ = std::move(*manager_or);
    obs::MetricsRegistry* reg = service->registry_.get();
    service->checkpoint_hist_ = reg->GetHistogram(
        "microprov_checkpoint_nanos", "",
        "Whole checkpoint stall: flush barrier, state capture and install");
    constexpr char kStageHelp[] =
        "Checkpoint stall by stage; the stages sum to the whole";
    service->checkpoint_barrier_hist_ = reg->GetHistogram(
        "microprov_checkpoint_stage_nanos", "stage=\"barrier\"", kStageHelp);
    service->checkpoint_capture_hist_ = reg->GetHistogram(
        "microprov_checkpoint_stage_nanos", "stage=\"capture\"", kStageHelp);
    service->checkpoint_install_hist_ = reg->GetHistogram(
        "microprov_checkpoint_stage_nanos", "stage=\"install\"", kStageHelp);
    MICROPROV_RETURN_IF_ERROR(service->Recover(&stages));
    constexpr char kRecoveryHelp[] =
        "Service::Open recovery by stage; the stages sum to the "
        "recovery part of Open";
    const std::pair<const char*, int64_t> observed[] = {
        {"archive_open", stages.archive_open},
        {"checkpoint_load", stages.checkpoint_load},
        {"import", stages.import},
        {"wal_read", stages.wal_read},
        {"replay", stages.replay}};
    for (const auto& [stage, nanos] : observed) {
      reg->GetHistogram("microprov_recovery_stage_nanos",
                        StringPrintf("stage=\"%s\"", stage), kRecoveryHelp)
          ->Observe(static_cast<uint64_t>(nanos));
    }
    if (service->recovered_tail_dirty_) {
      // The tail held torn bytes, orphaned sequences, or duplicates:
      // everything recoverable was recovered, but replaying those
      // segments again would be ambiguous (and a torn segment would no
      // longer be final). Installing a base checkpoint now retires the
      // damaged epochs before the WAL reopens.
      MICROPROV_RETURN_IF_ERROR(
          service->CheckpointLocked(/*force_base=*/true));
      service->recovered_tail_dirty_ = false;
    }
    MICROPROV_RETURN_IF_ERROR(
        service->durability_->StartWal(service->accepted_));
    service->wal_appends_counter_ =
        reg->GetCounter("microprov_wal_appends_total", "");
    service->wal_bytes_counter_ =
        reg->GetCounter("microprov_wal_bytes_total", "");
    service->checkpoints_counter_ =
        reg->GetCounter("microprov_checkpoints_total", "");
    service->replayed_counter_ =
        reg->GetCounter("microprov_recovery_replayed_messages_total", "");
  }
  service->sharded_->Start();

  // Cache the per-shard gauges Stats() aggregates. Everything below was
  // registered while the pipeline was constructed, so the Get* calls
  // only look up existing entries.
  obs::MetricsRegistry* registry = service->registry_.get();
  for (size_t i = 0; i < options.num_shards; ++i) {
    const std::string shard_label = StringPrintf("shard=\"%zu\"", i);
    service->pool_gauges_.push_back(
        registry->GetGauge("microprov_pool_bundles", shard_label));
    service->memory_gauges_.push_back(
        registry->GetGauge("microprov_engine_memory_bytes", shard_label));
    service->mem_pool_gauges_.push_back(
        registry->GetGauge("microprov_engine_memory_component_bytes",
                           shard_label + ",component=\"pool\""));
    service->mem_index_gauges_.push_back(
        registry->GetGauge("microprov_engine_memory_component_bytes",
                           shard_label + ",component=\"summary_index\""));
    service->mem_arena_gauges_.push_back(
        registry->GetGauge("microprov_engine_memory_component_bytes",
                           shard_label + ",component=\"arena\""));
    service->mem_dict_gauges_.push_back(
        registry->GetGauge("microprov_engine_memory_component_bytes",
                           shard_label + ",component=\"dictionary\""));
    if (!options.archive_dir.empty()) {
      service->store_gauges_.push_back(
          registry->GetGauge("microprov_store_bundles", shard_label));
    }
    service->health_gauges_.push_back(registry->GetGauge(
        "microprov_shard_health", shard_label,
        "Per-shard health verdict: 0=ok, 1=degraded, 2=stalled"));
    service->ingest_rate_gauges_.push_back(registry->GetGauge(
        "microprov_shard_ingest_rate", shard_label,
        "EWMA messages ingested per second, per shard"));
    service->query_rate_gauges_.push_back(registry->GetGauge(
        "microprov_shard_query_rate", shard_label,
        "EWMA queries touching the shard per second"));
    service->queue_hwm_gauges_.push_back(registry->GetGauge(
        "microprov_shard_queue_high_watermark", shard_label,
        "Deepest the shard's input queue has been"));
    service->stall_nanos_gauges_.push_back(registry->GetGauge(
        "microprov_shard_backpressure_stall_nanos", shard_label,
        "Cumulative producer time blocked on the shard's full queue"));
  }

  if (options.http_port >= 0) {
    obs::HttpExporter::Options http_options;
    http_options.bind_address = options.http_bind_address;
    http_options.port = static_cast<uint16_t>(options.http_port);
    service->exporter_ = std::make_unique<obs::HttpExporter>(
        http_options,
        [svc = service.get()](std::string_view path,
                              std::string_view query) {
          return svc->HandleHttp(path, query);
        });
    MICROPROV_RETURN_IF_ERROR(service->exporter_->Start());
  }
  return service;
}

Service::~Service() = default;

Status Service::Recover(RecoveryStages* stages) {
  // Single-threaded: workers have not started, so the shard engines and
  // clocks are exclusively ours.
  const int64_t import_from = MonotonicNanos();
  if (durability_->has_snapshot()) {
    recovery::ServiceSnapshot snapshot = durability_->TakeSnapshot();
    for (size_t i = 0; i < sharded_->num_shards(); ++i) {
      recovery::ShardSnapshot& shard = snapshot.shards[i];
      MICROPROV_RETURN_IF_ERROR(
          sharded_->mutable_shard(i)->ImportState(shard.state));
      sharded_->mutable_clock(i)->Set(shard.clock);
      sharded_->SeedIngested(i, shard.state.messages_ingested);
    }
    clock_.Advance(snapshot.watermark);
    accepted_ = snapshot.accepted;
  }
  const int64_t read_from = MonotonicNanos();
  stages->import = read_from - import_from;
  // Read every shard's WAL tail. Interior corruption (or a torn tail
  // anywhere but the final segment) fails recovery outright rather
  // than silently replaying a stream with a hole in the middle.
  const uint64_t checkpoint_accepted = accepted_;
  const size_t num_shards = sharded_->num_shards();
  std::vector<std::vector<recovery::WalTailRecord>> tails(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto tail_or = durability_->ReadShardTail(static_cast<uint32_t>(i));
    if (!tail_or.ok()) return tail_or.status();
    tails[i] = std::move(*tail_or);
  }
  const int64_t replay_from = MonotonicNanos();
  stages->wal_read = replay_from - read_from;
  // Durable-watermark resolution. Legacy v1 records carry no sequence
  // (seq == 0): they predate group commit, were written synchronously
  // before acceptance, and are unconditionally durable in file order.
  // v2 records carry the service acceptance sequence; only the largest
  // contiguous prefix past the watermark base (checkpoint acceptance +
  // legacy count) is known complete. Records past a gap (orphans of a
  // mid-batch crash) and duplicate sequences (resolved last-writer-
  // wins by WAL position) mark the tail dirty: they are skipped, and
  // Open retires their epochs with a forced base checkpoint. Records
  // at or below the checkpoint's acceptance count are stale epochs
  // retained by the delta-chain GC policy and skip silently.
  uint64_t legacy_total = 0;
  for (const auto& tail : tails) {
    for (const auto& record : tail) {
      if (record.seq == 0) ++legacy_total;
    }
  }
  const uint64_t watermark_base = checkpoint_accepted + legacy_total;
  struct Keeper {
    size_t shard = 0;
    size_t index = 0;
    uint64_t epoch = 0;
    uint32_t part = 0;
  };
  std::unordered_map<uint64_t, Keeper> by_seq;
  bool duplicates = false;
  for (size_t i = 0; i < num_shards; ++i) {
    for (size_t j = 0; j < tails[i].size(); ++j) {
      const recovery::WalTailRecord& record = tails[i][j];
      if (record.seq == 0 || record.seq <= checkpoint_accepted) continue;
      Keeper keeper{i, j, record.epoch, record.part};
      auto [it, inserted] = by_seq.emplace(record.seq, keeper);
      if (!inserted) {
        duplicates = true;
        const Keeper& held = it->second;
        if (std::tie(keeper.epoch, keeper.part, keeper.shard) >
            std::tie(held.epoch, held.part, held.shard)) {
          it->second = keeper;
        }
      }
    }
  }
  uint64_t watermark = watermark_base;
  while (by_seq.count(watermark + 1) != 0) ++watermark;
  const bool orphans = by_seq.size() > watermark - watermark_base;
  recovered_tail_dirty_ =
      duplicates || orphans ||
      durability_->replay_stats().torn_tail_bytes > 0;
  // Apply per shard in the exact order the shard workers originally
  // ingested: legacy records in file order first, then the kept v2
  // records ascending by acceptance sequence (the service serializes
  // acceptance, so per-shard ingest order follows it). Ingest is
  // deterministic per shard, so the recovered engines match the
  // pre-crash ones over the durable prefix.
  uint64_t total_applied = 0;
  for (size_t i = 0; i < num_shards; ++i) {
    ProvenanceEngine* engine = sharded_->mutable_shard(i);
    SimulatedClock* clock = sharded_->mutable_clock(i);
    std::vector<size_t> order;
    for (size_t j = 0; j < tails[i].size(); ++j) {
      if (tails[i][j].seq == 0) order.push_back(j);
    }
    std::vector<std::pair<uint64_t, size_t>> kept;
    for (const auto& [seq, keeper] : by_seq) {
      if (keeper.shard == i && seq <= watermark) {
        kept.emplace_back(seq, keeper.index);
      }
    }
    std::sort(kept.begin(), kept.end());
    for (const auto& [seq, index] : kept) order.push_back(index);
    uint64_t applied = 0;
    for (size_t index : order) {
      Message& msg = tails[i][index].msg;
      clock->Advance(msg.date);
      clock_.Advance(msg.date);
      auto result = engine->Ingest(msg);
      if (!result.ok()) return result.status();
      ++applied;
    }
    sharded_->SeedIngested(i, applied);
    total_applied += applied;
  }
  durability_->NoteReplayed(total_applied);
  accepted_ = watermark;
  stages->replay = MonotonicNanos() - replay_from;
  return Status::OK();
}

StatusOr<IngestResult> Service::Ingest(const Message& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  if (drained_) {
    return Status::FailedPrecondition("Service already drained");
  }
  // Submit FIRST, log after: a message reaches the WAL only once the
  // pipeline owns it, so replay can never resurrect a message Submit
  // rejected (the old log-then-submit order re-ingested such messages
  // on recovery). The cost is asymmetric and safe: a crash between
  // Submit and the append only loses a message that was never durable.
  uint32_t shard = 0;
  MICROPROV_RETURN_IF_ERROR(sharded_->Submit(msg, &shard));
  clock_.Advance(msg.date);
  ++accepted_;
  ++accepted_since_checkpoint_;
  if (durability_ != nullptr) {
    MICROPROV_RETURN_IF_ERROR(
        durability_->EnqueueAppend(shard, accepted_, msg));
  }
  if (durability_ != nullptr &&
      options_.durability.checkpoint_every_messages > 0 &&
      accepted_since_checkpoint_ >=
          options_.durability.checkpoint_every_messages) {
    MICROPROV_RETURN_IF_ERROR(CheckpointLocked());
  }
  IngestResult result;
  result.shard = shard;
  return result;
}

StatusOr<std::vector<BundleSearchResult>> Service::Search(
    const BundleQuery& query) {
  obs::ScopedLatencyTimer latency_timer(query_latency_hist_);
  query_requests_counter_->Increment();
  // Tracing decisions up front: a query is traced when it is sampled
  // into the main ring OR the slow log is armed (a slow query must be
  // captured with its spans even when sampled out — the routing
  // happens at Record time, once the latency is known).
  const bool sampled =
      query_trace_ != nullptr && query_trace_->ShouldSample();
  const bool tracing =
      query_trace_ != nullptr &&
      (sampled || query_trace_->slow_query_nanos() > 0);
  obs::SpanRecorder recorder;
  obs::SpanRecorder* spans = tracing ? &recorder : nullptr;
  obs::QueryTraceEvent event;
  obs::Span root(spans, "search");

  obs::Span parse_span(spans, "parse", root.id());
  const ParsedQuery parsed = ParseQuery(query.text);
  parse_span.End();

  // One read per shard, run by the shard workers. Each shard searches
  // against the global population the read resolved, so the pages merge
  // exactly as SearchShards merges them over flushed engines.
  const size_t num_shards = processors_.size();
  BundleQuery effective = query;
  std::vector<std::vector<BundleSearchResult>> pages(num_shards);
  std::vector<obs::QueryShardTrace> traces(tracing ? num_shards : 0);
  std::unique_lock<std::mutex> lock(mu_);
  if (effective.now == 0) effective.now = clock_.value();
  MICROPROV_RETURN_IF_ERROR(sharded_->Read(
      [&](size_t i, size_t total_bundles) {
        BundleQuery shard_query = effective;
        if (shard_query.total_bundles == 0) {
          shard_query.total_bundles = total_bundles;
        }
        if (i == 0) event.total_bundles = shard_query.total_bundles;
        pages[i] = processors_[i].SearchShard(
            parsed, shard_query, static_cast<uint32_t>(i), spans,
            root.id(), tracing ? &traces[i] : nullptr);
      },
      std::move(lock)));
  for (size_t i = 0; i < num_shards; ++i) {
    sharded_->load_tracker(i)->NoteQuery();
  }
  query_fanout_hist_->Observe(num_shards);

  std::vector<BundleSearchResult> results = BundleQueryProcessor::MergeShards(
      std::move(pages), effective.k, spans, root.id(),
      tracing ? &event : nullptr, std::move(traces));
  if (!tracing) return results;

  root.End();
  event.query_id = query_trace_->NextQueryId();
  event.text = effective.text;
  event.now = effective.now;
  event.k = effective.k;
  event.spans = recorder.Take();
  for (const obs::SpanRecord& span : event.spans) {
    if (span.id == root.id()) {
      event.total_nanos = static_cast<uint64_t>(span.duration_nanos);
      break;
    }
  }
  query_trace_->Record(std::move(event), sampled);
  return results;
}

Status Service::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (drained_) return Status::OK();
  MICROPROV_RETURN_IF_ERROR(sharded_->Flush());
  // Durability barrier: every accepted message is also on disk (per
  // the WAL flush policy) once Flush returns.
  if (durability_ != nullptr) {
    return durability_->WaitDurable(accepted_);
  }
  return Status::OK();
}

Status Service::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  return CheckpointLocked();
}

Status Service::CheckpointLocked(bool force_base) {
  if (durability_ == nullptr) {
    return Status::FailedPrecondition("durability not configured");
  }
  const int64_t start = MonotonicNanos();
  // Barrier. Quiesce so the shard engines are stable and readable, then
  // push the archived bundles out of the process: the image references
  // them by assuming they survive the crash too, and a base install
  // garbage-collects the WAL epochs that could re-create them. In
  // power-loss mode the stores are synced as well, matching the WAL.
  if (!drained_) {
    MICROPROV_RETURN_IF_ERROR(sharded_->Flush());
  }
  const bool sync = options_.durability.wal_sync_every_append;
  for (auto& store : stores_) {
    MICROPROV_RETURN_IF_ERROR(sync ? store->Sync() : store->Flush());
  }
  // The checkpoint barrier covers the WAL too: every message the image
  // includes must be on disk before the install rotates epochs, or a
  // crash right after the install could lose acknowledged records.
  MICROPROV_RETURN_IF_ERROR(durability_->WaitDurable(accepted_));
  const int64_t captured_from = MonotonicNanos();
  int64_t installed_from = 0;

  // Capture and install. The images borrow the live bundles and
  // dictionaries instead of copying them: they stay valid only while
  // the engines do not change, which holding mu_ past the barrier
  // guarantees — Ingest, Search's enqueue and Drain all need mu_, and
  // the barrier left no queued message or read for a worker to run.
  // Each image is encoded inside its Install call and dropped here.
  const size_t num_shards = sharded_->num_shards();
  if (!force_base && !checkpoint_force_base_ &&
      durability_->ShouldInstallDelta()) {
    recovery::ServiceDeltaView delta;
    delta.parent_seq = durability_->checkpoint_seq();
    delta.num_shards = static_cast<uint32_t>(num_shards);
    delta.watermark = clock_.value();
    delta.accepted = accepted_;
    delta.shards.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      recovery::ShardDeltaView& shard = delta.shards.emplace_back();
      shard.clock = sharded_->shard_clock(i);
      shard.delta = sharded_->mutable_shard_quiesced(i)->ExportDelta();
    }
    installed_from = MonotonicNanos();
    Status install = durability_->InstallDelta(delta);
    if (!install.ok()) {
      // ExportDelta already consumed the dirty sets; a retried delta
      // would have a hole. The next attempt must be a full base.
      checkpoint_force_base_ = true;
      return install;
    }
  } else {
    recovery::ServiceSnapshotView snapshot;
    snapshot.num_shards = static_cast<uint32_t>(num_shards);
    snapshot.watermark = clock_.value();
    snapshot.accepted = accepted_;
    snapshot.shards.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      recovery::ShardSnapshotView& shard = snapshot.shards.emplace_back();
      shard.clock = sharded_->shard_clock(i);
      shard.state = sharded_->shard(i).ExportState();
    }
    installed_from = MonotonicNanos();
    MICROPROV_RETURN_IF_ERROR(durability_->InstallCheckpoint(snapshot));
    // The base captured everything; restart delta tracking from it.
    for (size_t i = 0; i < num_shards; ++i) {
      sharded_->mutable_shard_quiesced(i)->ResetDeltaCursor();
    }
    checkpoint_force_base_ = false;
  }
  accepted_since_checkpoint_ = 0;
  const int64_t end = MonotonicNanos();
  checkpoint_barrier_hist_->Observe(captured_from - start);
  checkpoint_capture_hist_->Observe(installed_from - captured_from);
  checkpoint_install_hist_->Observe(end - installed_from);
  checkpoint_hist_->Observe(end - start);
  return Status::OK();
}

Status Service::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  if (drained_) return Status::OK();
  MICROPROV_RETURN_IF_ERROR(sharded_->Drain());
  for (auto& store : stores_) {
    MICROPROV_RETURN_IF_ERROR(store->Flush());
  }
  drained_ = true;
  // Seal durable state: the final checkpoint captures the drained
  // engines (archived bundles included) as a full base image, so the
  // next Open recovers without replaying anything and every superseded
  // WAL epoch and delta file is truncated.
  if (durability_ != nullptr) {
    MICROPROV_RETURN_IF_ERROR(CheckpointLocked(/*force_base=*/true));
    MICROPROV_RETURN_IF_ERROR(durability_->Close());
  }
  return Status::OK();
}

ServiceStats Service::Stats() const {
  // Every source here is an atomic counter, a gauge, or mutex-guarded
  // queue state — never a direct engine read — so this is safe while
  // shard workers are mid-ingest (and from the HTTP exporter thread).
  ServiceStats stats;
  stats.messages_ingested = sharded_->messages_ingested();
  for (obs::Gauge* gauge : pool_gauges_) {
    stats.live_bundles += static_cast<size_t>(gauge->value());
  }
  for (obs::Gauge* gauge : memory_gauges_) {
    stats.memory_bytes += static_cast<size_t>(gauge->value());
  }
  for (size_t i = 0; i < mem_pool_gauges_.size(); ++i) {
    stats.memory.pool_bytes +=
        static_cast<size_t>(mem_pool_gauges_[i]->value());
    stats.memory.summary_index_bytes +=
        static_cast<size_t>(mem_index_gauges_[i]->value());
    stats.memory.arena_bytes +=
        static_cast<size_t>(mem_arena_gauges_[i]->value());
    stats.memory.dictionary_bytes +=
        static_cast<size_t>(mem_dict_gauges_[i]->value());
  }
  for (obs::Gauge* gauge : store_gauges_) {
    stats.archived_bundles += static_cast<uint64_t>(gauge->value());
  }
  for (size_t i = 0; i < sharded_->num_shards(); ++i) {
    stats.shards.push_back(sharded_->shard_stats(i));
    stats.queue_depth += stats.shards.back().queue_depth;
    stats.backpressure_stalls += stats.shards.back().blocked_pushes;
  }
  if (wal_appends_counter_ != nullptr) {
    stats.wal_appended_messages = wal_appends_counter_->value();
  }
  if (wal_bytes_counter_ != nullptr) {
    stats.wal_appended_bytes = wal_bytes_counter_->value();
  }
  if (checkpoints_counter_ != nullptr) {
    stats.checkpoints_installed = checkpoints_counter_->value();
  }
  if (replayed_counter_ != nullptr) {
    stats.replayed_messages = replayed_counter_->value();
  }
  stats.shard_health = Health();
  if (query_trace_ != nullptr) {
    stats.queries_traced = query_trace_->total_recorded();
    stats.slow_queries = query_trace_->slow_recorded();
  }
  return stats;
}

obs::ShardHealthSnapshot Service::EvaluateShard(size_t i) const {
  obs::ShardHealthInputs inputs;
  // in_flight rather than the raw queue depth: a worker frozen
  // mid-message has drained the queue but is still sitting on accepted,
  // unapplied work — exactly the backlog a stall verdict must see.
  inputs.queue_depth = sharded_->shard_in_flight(i);
  if (durability_ != nullptr) {
    inputs.wal_pending_bytes =
        durability_->PendingShardBytes(static_cast<uint32_t>(i));
    inputs.wal_flusher_age_nanos = durability_->FlusherHeartbeatAgeNanos();
  }
  inputs.arena_bytes =
      static_cast<uint64_t>(mem_arena_gauges_[i]->value());
  inputs.arena_budget_bytes = shard_arena_budget_bytes_;
  obs::ShardHealthSnapshot snap =
      sharded_->load_tracker(i)->Evaluate(inputs);
  health_gauges_[i]->Set(static_cast<int64_t>(snap.health));
  ingest_rate_gauges_[i]->Set(static_cast<int64_t>(snap.ingest_rate));
  query_rate_gauges_[i]->Set(static_cast<int64_t>(snap.query_rate));
  queue_hwm_gauges_[i]->Set(
      static_cast<int64_t>(snap.queue_high_watermark));
  stall_nanos_gauges_[i]->Set(snap.backpressure_stall_nanos);
  return snap;
}

std::vector<obs::ShardHealthSnapshot> Service::Health() const {
  std::vector<obs::ShardHealthSnapshot> out;
  out.reserve(sharded_->num_shards());
  for (size_t i = 0; i < sharded_->num_shards(); ++i) {
    out.push_back(EvaluateShard(i));
  }
  return out;
}

std::string Service::StatusJson() const {
  // One Stats() call drives the whole document so the shard table and
  // the aggregates come from the same instant.
  const ServiceStats stats = Stats();
  std::string out;
  StringAppendF(&out,
                "{\"messages_ingested\":%llu,\"live_bundles\":%zu,"
                "\"archived_bundles\":%llu,\"queue_depth\":%zu,"
                "\"backpressure_stalls\":%llu,"
                "\"wal_appended_messages\":%llu,"
                "\"checkpoints_installed\":%llu,"
                "\"replayed_messages\":%llu,"
                "\"queries_traced\":%llu,\"slow_queries\":%llu,"
                "\"memory\":{\"total_bytes\":%zu,\"pool_bytes\":%zu,"
                "\"summary_index_bytes\":%zu,\"arena_bytes\":%zu,"
                "\"dictionary_bytes\":%zu},\"shards\":[",
                (unsigned long long)stats.messages_ingested,
                stats.live_bundles,
                (unsigned long long)stats.archived_bundles,
                stats.queue_depth,
                (unsigned long long)stats.backpressure_stalls,
                (unsigned long long)stats.wal_appended_messages,
                (unsigned long long)stats.checkpoints_installed,
                (unsigned long long)stats.replayed_messages,
                (unsigned long long)stats.queries_traced,
                (unsigned long long)stats.slow_queries,
                stats.memory_bytes, stats.memory.pool_bytes,
                stats.memory.summary_index_bytes,
                stats.memory.arena_bytes,
                stats.memory.dictionary_bytes);
  for (size_t i = 0; i < stats.shard_health.size(); ++i) {
    const obs::ShardHealthSnapshot& h = stats.shard_health[i];
    const ShardStatsSnapshot& s = stats.shards[i];
    StringAppendF(
        &out,
        "%s{\"shard\":%u,\"health\":\"%s\",\"reason\":\"",
        i == 0 ? "" : ",", h.shard, obs::ShardHealthName(h.health));
    obs::AppendJsonEscaped(&out, h.reason);
    StringAppendF(
        &out,
        "\",\"ingest_rate\":%.1f,\"query_rate\":%.1f,"
        "\"ingested\":%llu,\"enqueued\":%llu,\"queue_depth\":%zu,"
        "\"queue_high_watermark\":%zu,\"blocked_pushes\":%llu,"
        "\"backpressure_stall_nanos\":%lld,\"wal_pending_bytes\":%llu,"
        "\"wal_flusher_age_nanos\":%lld,\"arena_bytes\":%llu,"
        "\"arena_budget_bytes\":%llu}",
        h.ingest_rate, h.query_rate, (unsigned long long)h.ingested_total,
        (unsigned long long)s.enqueued, h.queue_depth,
        h.queue_high_watermark, (unsigned long long)s.blocked_pushes,
        (long long)h.backpressure_stall_nanos,
        (unsigned long long)h.wal_pending_bytes,
        (long long)h.wal_flusher_age_nanos,
        (unsigned long long)h.arena_bytes,
        (unsigned long long)h.arena_budget_bytes);
  }
  out += "]}";
  return out;
}

obs::HttpResponse Service::HandleHttp(std::string_view path,
                                      std::string_view query) const {
  obs::HttpResponse response;
  if (path == "/metrics") {
    // Health first, so the scrape's health gauges reflect this instant.
    Health();
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = MetricsText();
    return response;
  }
  if (path == "/healthz") {
    std::string detail;
    bool stalled = false;
    for (const obs::ShardHealthSnapshot& h : Health()) {
      if (h.health == obs::ShardHealth::kStalled) {
        stalled = true;
        StringAppendF(&detail, "shard %u stalled: %s\n", h.shard,
                      h.reason.c_str());
      }
    }
    response.status = stalled ? 503 : 200;
    response.body = stalled ? detail : "ok\n";
    return response;
  }
  if (path == "/statusz") {
    response.content_type = "application/json";
    response.body = StatusJson();
    return response;
  }
  if (path == "/debug/traces") {
    response.content_type = "application/x-ndjson";
    response.body =
        query == "ring=ingest" ? TraceJsonl() : QueryTraceJsonl();
    return response;
  }
  if (path == "/debug/slow") {
    response.content_type = "application/x-ndjson";
    response.body = SlowQueryJsonl();
    return response;
  }
  response.status = 404;
  response.body = "not found; try /metrics /healthz /statusz "
                  "/debug/traces /debug/slow\n";
  return response;
}

}  // namespace microprov
