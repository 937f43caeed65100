#include "service/sharded_engine.h"

#include "common/hash.h"
#include "common/string_util.h"

namespace microprov {

uint32_t RouteShard(const Message& msg, size_t num_shards) {
  if (num_shards <= 1) return 0;
  std::string_view key;
  if (msg.is_retweet && !msg.retweet_of_user.empty()) {
    key = msg.retweet_of_user;
  } else if (!msg.urls.empty()) {
    key = msg.urls.front();
  } else if (!msg.hashtags.empty()) {
    key = msg.hashtags.front();
  } else {
    key = msg.user;
  }
  return static_cast<uint32_t>(Fnv1a64(key) % num_shards);
}

/// One Read in flight, shared by its caller and the workers it was
/// queued on (fields guarded by `mu`).
struct ShardedEngine::PendingRead {
  PendingRead(const ReadFn* fn, size_t expected)
      : fn(fn), expected(expected) {}

  /// Worker side: publishes the shard's live-bundle count, waits at the
  /// count barrier, then runs the caller's function.
  void Run(size_t shard, size_t live_bundles) {
    std::unique_lock<std::mutex> lock(mu);
    total += live_bundles;
    if (++arrived == expected) cv.notify_all();
    cv.wait(lock, [&] { return arrived == expected || aborted; });
    if (!aborted) {
      const size_t sum = total;
      lock.unlock();
      (*fn)(shard, sum);
      lock.lock();
    }
    // Notify under the lock: once the caller sees the last finish, it
    // destroys the read.
    if (++finished == expected) cv.notify_all();
  }

  const ReadFn* fn;
  std::mutex mu;
  std::condition_variable cv;
  size_t expected;     // shards that will run the read
  size_t arrived = 0;  // live-bundle counts published so far
  size_t total = 0;    // their sum
  size_t finished = 0;
  bool aborted = false;
};

ShardedEngine::ShardedEngine(const ShardedEngineOptions& options,
                             std::vector<BundleArchive*> archives)
    : options_(options) {
  const size_t n = options_.num_shards == 0 ? 1 : options_.num_shards;
  obs::MetricsRegistry* registry = options_.engine.metrics;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    BundleArchive* archive =
        i < archives.size() ? archives[i] : nullptr;
    EngineOptions engine_options = options_.engine;
    engine_options.shard_index = static_cast<uint32_t>(i);
    shards_.push_back(std::make_unique<Shard>(
        engine_options, archive, options_.queue_capacity));
    shards_.back()->load_tracker = std::make_unique<obs::ShardLoadTracker>(
        static_cast<uint32_t>(i), options_.queue_capacity,
        options_.health);
    if (registry != nullptr) {
      const std::string shard_label =
          StringPrintf("shard=\"%zu\"", i);
      shards_.back()->ingested_counter = registry->GetCounter(
          "microprov_shard_ingested_total", shard_label,
          "Messages ingested by each shard worker");
      shards_.back()->depth_gauge = registry->GetGauge(
          "microprov_shard_queue_depth", shard_label,
          "Messages waiting in each shard's input queue "
          "(refreshed once per worker batch)");
    }
  }
  if (registry != nullptr) {
    backpressure_counter_ = registry->GetCounter(
        "microprov_shard_backpressure_stalls_total", "",
        "Submit calls that blocked on a full shard queue");
    batches_counter_ =
        registry->GetCounter("microprov_shard_batches_total", "",
                             "Worker dequeue batches across all shards");
    batch_size_hist_ =
        registry->GetHistogram("microprov_shard_batch_size", "",
                               "Messages per worker dequeue batch");
  }
  if (!options_.defer_workers) Start();
}

void ShardedEngine::Start() {
  if (started_) return;
  started_ = true;
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->worker = std::thread([this, i] { WorkerLoop(i); });
  }
}

void ShardedEngine::SeedIngested(size_t i, uint64_t n) {
  if (n == 0) return;
  Shard& shard = *shards_[i];
  shard.enqueued.Add(n);
  shard.ingested.Add(n);
  if (shard.ingested_counter != nullptr) {
    shard.ingested_counter->Increment(n);
  }
}

ShardedEngine::~ShardedEngine() {
  // Stop workers without archiving; callers wanting a clean shutdown
  // call Drain() first.
  for (auto& shard : shards_) shard->queue.Close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

Status ShardedEngine::Submit(const Message& msg, uint32_t* shard_out) {
  if (drained_) {
    return Status::FailedPrecondition("ShardedEngine already drained");
  }
  if (!started_) {
    return Status::FailedPrecondition("ShardedEngine not started");
  }
  const uint32_t idx = RouteShard(msg, shards_.size());
  Shard& shard = *shards_[idx];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.error.ok()) return shard.error;
    ++shard.in_flight;
    // in_flight (queued + in the current batch) doubles as the queue
    // depth signal — no extra queue-lock acquisition on the hot path.
    shard.load_tracker->NoteQueueDepth(
        static_cast<size_t>(shard.in_flight));
  }
  bool blocked = false;
  int64_t blocked_nanos = 0;
  if (!shard.queue.Push(Item{msg, nullptr}, &blocked, &blocked_nanos)) {
    std::lock_guard<std::mutex> lock(shard.mu);
    --shard.in_flight;
    return Status::FailedPrecondition("shard queue closed");
  }
  if (blocked) {
    if (backpressure_counter_ != nullptr) {
      backpressure_counter_->Increment();
    }
    shard.load_tracker->NoteBackpressureStall(blocked_nanos);
  }
  shard.enqueued.Add();
  if (shard_out != nullptr) *shard_out = idx;
  return Status::OK();
}

Status ShardedEngine::Read(const ReadFn& fn,
                           std::unique_lock<std::mutex> lock) {
  if (!started_ || drained_) {
    // No workers: the caller has every engine to itself.
    const size_t total = TotalPoolSize();
    for (size_t i = 0; i < shards_.size(); ++i) fn(i, total);
    return Status::OK();
  }
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    if (!shard->error.ok()) return shard->error;
  }
  PendingRead read(&fn, shards_.size());
  Status status;
  for (size_t i = 0; i < shards_.size() && status.ok(); ++i) {
    Shard& shard = *shards_[i];
    {
      std::lock_guard<std::mutex> shard_lock(shard.mu);
      ++shard.reads_in_flight;
    }
    if (!shard.queue.Push(Item{Message(), &read})) {
      Settle(&shard, 0, 1);
      // Release the workers already holding the read, unrun.
      std::lock_guard<std::mutex> read_lock(read.mu);
      read.aborted = true;
      read.expected = i;
      read.cv.notify_all();
      status = Status::FailedPrecondition("shard queue closed");
    }
  }
  lock.unlock();
  std::unique_lock<std::mutex> read_lock(read.mu);
  read.cv.wait(read_lock, [&] { return read.finished == read.expected; });
  return status;
}

Status ShardedEngine::Flush() {
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    shard->idle.wait(lock, [&] {
      return shard->in_flight == 0 && shard->reads_in_flight == 0;
    });
    if (!shard->error.ok()) return shard->error;
  }
  // The barrier makes shard engines readable from this thread; use the
  // checkpoint to republish the O(pool)-cost memory gauges.
  for (auto& shard : shards_) {
    shard->engine.RefreshMemoryMetrics();
    if (shard->depth_gauge != nullptr) {
      shard->depth_gauge->Set(static_cast<int64_t>(shard->queue.size()));
    }
  }
  return Status::OK();
}

Status ShardedEngine::Drain() {
  if (drained_) return Status::OK();
  MICROPROV_RETURN_IF_ERROR(Flush());
  for (auto& shard : shards_) shard->queue.Close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  drained_ = true;
  // Workers are gone; engine access from this thread is now exclusive.
  for (auto& shard : shards_) {
    if (shard->engine.archive() != nullptr) {
      MICROPROV_RETURN_IF_ERROR(shard->engine.Drain());
    }
  }
  return Status::OK();
}

void ShardedEngine::WorkerLoop(size_t index) {
  Shard* shard = shards_[index].get();
  std::vector<Item> batch;
  batch.reserve(options_.max_batch);
  while (true) {
    batch.clear();
    if (shard->queue.PopBatch(&batch, options_.max_batch) == 0) {
      break;  // closed and empty
    }
    // Reads are not messages: they stay out of the ingest counters and
    // batch sizes. Messages ahead of a read are settled before it runs,
    // so a read waiting on a slower shard leaves no backlog here; the
    // batch's reads settle last, keeping Flush behind its counters.
    size_t unsettled = 0;
    uint64_t reads = 0;
    for (Item& item : batch) {
      if (item.read != nullptr) {
        Settle(shard, unsettled, 0);
        unsettled = 0;
        item.read->Run(index, shard->engine.pool().size());
        ++reads;
        continue;
      }
      // Per-shard stream time: the newest date this shard has seen.
      shard->clock.Advance(item.msg.date);
      StatusOr<IngestResult> result = shard->engine.Ingest(item.msg);
      if (result.ok()) {
        shard->ingested.Add();
        if (shard->ingested_counter != nullptr) {
          shard->ingested_counter->Increment();
        }
      } else {
        std::lock_guard<std::mutex> lock(shard->mu);
        if (shard->error.ok()) shard->error = result.status();
      }
      ++unsettled;
    }
    const size_t messages = batch.size() - reads;
    if (messages > 0) {
      shard->batches.Add();
      if (batches_counter_ != nullptr) batches_counter_->Increment();
      if (batch_size_hist_ != nullptr) batch_size_hist_->Observe(messages);
    }
    if (shard->depth_gauge != nullptr) {
      shard->depth_gauge->Set(static_cast<int64_t>(shard->queue.size()));
    }
    Settle(shard, unsettled, reads);
  }
}

void ShardedEngine::Settle(Shard* shard, size_t messages, uint64_t reads) {
  if (messages > 0) shard->load_tracker->NoteIngested(messages);
  std::lock_guard<std::mutex> lock(shard->mu);
  shard->in_flight -= messages;
  shard->reads_in_flight -= reads;
  if (shard->in_flight == 0 && shard->reads_in_flight == 0) {
    shard->idle.notify_all();
  }
}

ShardStatsSnapshot ShardedEngine::shard_stats(size_t i) const {
  const Shard& shard = *shards_[i];
  ShardStatsSnapshot snap;
  snap.enqueued = shard.enqueued.value();
  snap.ingested = shard.ingested.value();
  snap.batches = shard.batches.value();
  snap.blocked_pushes = shard.queue.blocked_pushes();
  snap.queue_depth = shard.queue.size();
  return snap;
}

size_t ShardedEngine::shard_in_flight(size_t i) const {
  Shard& shard = *shards_[i];
  std::lock_guard<std::mutex> lock(shard.mu);
  return static_cast<size_t>(shard.in_flight);
}

uint64_t ShardedEngine::messages_ingested() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->ingested.value();
  return total;
}

size_t ShardedEngine::TotalPoolSize() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->engine.pool().size();
  return total;
}

size_t ShardedEngine::ApproxMemoryUsage() const {
  return MemoryUsage().total();
}

MemoryBreakdown ShardedEngine::MemoryUsage() const {
  MemoryBreakdown total;
  for (const auto& shard : shards_) {
    total += shard->engine.MemoryUsage();
  }
  return total;
}

}  // namespace microprov
