#include "recovery/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <unordered_set>

#include "common/clock.h"
#include "common/coding.h"
#include "common/env.h"
#include "common/string_util.h"

namespace microprov {
namespace recovery {

namespace {

constexpr char kCurrentName[] = "CURRENT";

/// Each shard's WAL starts a new segment part past this size.
constexpr uint64_t kWalRotateBytes = 8ull << 20;
/// Pending encoded bytes that wake the flusher before its group-commit
/// window ends.
constexpr uint64_t kWalGroupCommitBytes = 256ull << 10;
/// Backpressure: EnqueueAppend blocks once this many un-flushed bytes
/// are pending, bounding the acceptance-to-durability window.
constexpr uint64_t kWalMaxPendingBytes = 4ull << 20;

bool ParseCheckpointName(const std::string& name, uint64_t* seq) {
  unsigned long long s = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "checkpoint-%10llu.snap%n", &s,
                  &consumed) != 1 ||
      static_cast<size_t>(consumed) != name.size()) {
    return false;
  }
  *seq = s;
  return true;
}

bool ParseDeltaName(const std::string& name, uint64_t* seq) {
  unsigned long long s = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "checkpoint-%10llu.delta%n", &s,
                  &consumed) != 1 ||
      static_cast<size_t>(consumed) != name.size()) {
    return false;
  }
  *seq = s;
  return true;
}

/// Write + fsync + atomic rename + directory fsync: the file is either
/// absent or complete after any crash, including power loss.
Status DurableWriteFile(const std::string& dir, const std::string& path,
                        std::string_view data) {
  const std::string tmp = path + ".tmp";
  {
    auto file_or = Env::Default()->NewWritableFile(tmp);
    if (!file_or.ok()) return file_or.status();
    auto& file = *file_or;
    MICROPROV_RETURN_IF_ERROR(file->Append(data));
    MICROPROV_RETURN_IF_ERROR(file->Sync());
    MICROPROV_RETURN_IF_ERROR(file->Close());
  }
  MICROPROV_RETURN_IF_ERROR(Env::Default()->RenameFile(tmp, path));
  return Env::Default()->SyncDir(dir);
}

}  // namespace

StatusOr<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    const DurabilityOptions& options, uint32_t num_shards,
    obs::MetricsRegistry* registry) {
  if (!options.enabled()) {
    return Status::InvalidArgument("durability dir must be set");
  }
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  MICROPROV_RETURN_IF_ERROR(
      Env::Default()->CreateDirIfMissing(options.dir));
  MICROPROV_RETURN_IF_ERROR(
      Env::Default()->CreateDirIfMissing(options.dir + "/wal"));
  auto manager = std::unique_ptr<DurabilityManager>(
      new DurabilityManager(options, num_shards));
  if (registry != nullptr) {
    manager->appends_counter_ =
        registry->GetCounter("microprov_wal_appends_total", "",
                             "Messages appended to the WAL");
    manager->append_bytes_counter_ =
        registry->GetCounter("microprov_wal_bytes_total", "",
                             "Payload bytes appended to the WAL");
    manager->flushes_counter_ =
        registry->GetCounter("microprov_wal_flushes_total", "",
                             "Group-commit flush batches written");
    manager->flush_batch_hist_ =
        registry->GetHistogram("microprov_wal_flush_batch_records", "",
                               "Records per group-commit flush batch");
    manager->flush_hist_ =
        registry->GetHistogram("microprov_wal_flush_nanos", "",
                               "Group-commit flush batch latency");
    manager->checkpoints_counter_ =
        registry->GetCounter("microprov_checkpoints_total", "",
                             "Checkpoints installed (base + delta)");
    manager->delta_checkpoints_counter_ =
        registry->GetCounter("microprov_checkpoints_delta_total", "",
                             "Incremental (delta) checkpoints installed");
    manager->checkpoint_bytes_counter_ =
        registry->GetCounter("microprov_checkpoint_bytes_total", "",
                             "Serialized base snapshot bytes written");
    manager->delta_bytes_counter_ =
        registry->GetCounter("microprov_checkpoint_delta_bytes_total", "",
                             "Serialized delta checkpoint bytes written");
    manager->replayed_counter_ = registry->GetCounter(
        "microprov_recovery_replayed_messages_total", "",
        "Messages replayed from the WAL tail at recovery");
    manager->torn_bytes_counter_ = registry->GetCounter(
        "microprov_wal_torn_tail_bytes_total", "",
        "WAL bytes discarded as torn tails at recovery");
    manager->dropped_bytes_counter_ = registry->GetCounter(
        "microprov_wal_dropped_bytes_total", "",
        "WAL bytes discarded as interior corruption at recovery");
  }
  MICROPROV_RETURN_IF_ERROR(manager->LoadLatestCheckpoint());
  return manager;
}

DurabilityManager::~DurabilityManager() {
  // Best-effort: stops the flusher and closes writers if the owner
  // never called Close() (e.g. a failed Open path).
  Status ignored = Close();
  (void)ignored;
}

std::string DurabilityManager::CheckpointPath(uint64_t seq) const {
  return options_.dir + "/" +
         StringPrintf("checkpoint-%010" PRIu64 ".snap", seq);
}

std::string DurabilityManager::DeltaPath(uint64_t seq) const {
  return options_.dir + "/" +
         StringPrintf("checkpoint-%010" PRIu64 ".delta", seq);
}

std::string DurabilityManager::ShardWalDir(uint32_t shard) const {
  return options_.dir + "/wal/" + StringPrintf("shard-%u", shard);
}

Status DurabilityManager::LoadLatestCheckpoint() {
  // CURRENT names the installed sequence, but the file CRCs are the
  // actual gate: scan bases descending, and for each candidate resolve
  // the longest delta chain that decodes, links (parent_seq), and
  // applies. A bit-rotted base degrades to the previous base; a
  // bit-rotted delta truncates the chain at its predecessor — in both
  // cases the retained WAL covers the difference.
  auto names_or = Env::Default()->ListDir(options_.dir);
  if (!names_or.ok()) return names_or.status();
  std::vector<uint64_t> bases;
  std::unordered_set<uint64_t> deltas;
  for (const std::string& name : *names_or) {
    uint64_t seq = 0;
    if (ParseCheckpointName(name, &seq)) bases.push_back(seq);
    if (ParseDeltaName(name, &seq)) deltas.insert(seq);
  }
  std::sort(bases.rbegin(), bases.rend());
  for (uint64_t base : bases) {
    // `limit` tightens when a delta decodes but fails to apply (its
    // application may have part-mutated the image, so the whole
    // resolution restarts without it). Termination: limit strictly
    // decreases.
    uint64_t limit = UINT64_MAX;
    while (true) {
      std::string encoded;
      Status read = Env::Default()->ReadFileToString(CheckpointPath(base),
                                                     &encoded);
      if (!read.ok()) break;
      auto snapshot_or = DecodeServiceSnapshot(std::move(encoded));
      if (!snapshot_or.ok()) break;
      if (snapshot_or->num_shards != num_shards_) {
        return Status::InvalidArgument(StringPrintf(
            "checkpoint has %u shards, service configured with %u",
            snapshot_or->num_shards, num_shards_));
      }
      ServiceSnapshot image = std::move(*snapshot_or);
      uint64_t resolved = base;
      bool retry = false;
      for (uint64_t d = base + 1; d < limit && deltas.count(d) != 0;
           ++d) {
        std::string delta_encoded;
        if (!Env::Default()
                 ->ReadFileToString(DeltaPath(d), &delta_encoded)
                 .ok()) {
          break;
        }
        auto delta_or = DecodeServiceDelta(std::move(delta_encoded));
        if (!delta_or.ok()) break;
        if (delta_or->parent_seq != resolved) break;
        if (!ApplyServiceDelta(&image, std::move(*delta_or)).ok()) {
          limit = d;
          retry = true;
          break;
        }
        resolved = d;
      }
      if (retry) continue;
      snapshot_ = std::move(image);
      has_snapshot_ = true;
      seq_ = resolved;
      base_seq_ = base;
      return Status::OK();
    }
  }
  return Status::OK();  // fresh directory
}

ServiceSnapshot DurabilityManager::TakeSnapshot() {
  has_snapshot_ = false;
  return std::move(snapshot_);
}

StatusOr<std::vector<WalTailRecord>> DurabilityManager::ReadShardTail(
    uint32_t shard) {
  WalReplayStats stats;
  auto records_or = ReadWalTail(ShardWalDir(shard), seq_, &stats);
  replay_stats_.torn_tail_bytes += stats.torn_tail_bytes;
  replay_stats_.dropped_bytes += stats.dropped_bytes;
  if (torn_bytes_counter_ != nullptr && stats.torn_tail_bytes > 0) {
    torn_bytes_counter_->Increment(
        static_cast<uint64_t>(stats.torn_tail_bytes));
  }
  if (dropped_bytes_counter_ != nullptr && stats.dropped_bytes > 0) {
    dropped_bytes_counter_->Increment(
        static_cast<uint64_t>(stats.dropped_bytes));
  }
  return records_or;
}

void DurabilityManager::NoteReplayed(uint64_t n) {
  replay_stats_.messages += n;
  if (replayed_counter_ != nullptr && n > 0) {
    replayed_counter_->Increment(n);
  }
}

Status DurabilityManager::StartWal(uint64_t durable_floor) {
  if (!writers_.empty()) return Status::OK();
  WalOptions wal;
  wal.rotate_bytes = kWalRotateBytes;
  writers_.reserve(num_shards_);
  for (uint32_t i = 0; i < num_shards_; ++i) {
    wal.dir = ShardWalDir(i);
    auto writer_or = WalWriter::Open(wal, seq_ + 1);
    if (!writer_or.ok()) return writer_or.status();
    writers_.push_back(std::move(*writer_or));
  }
  pending_.assign(num_shards_, {});
  pending_bytes_ = 0;
  pending_records_ = 0;
  last_enqueued_seq_ = durable_floor;
  durable_seq_ = durable_floor;
  flusher_error_ = Status::OK();
  flusher_kick_ = false;
  flusher_stop_ = false;
  shard_pending_bytes_ =
      std::make_unique<std::atomic<uint64_t>[]>(num_shards_);
  for (uint32_t i = 0; i < num_shards_; ++i) {
    shard_pending_bytes_[i].store(0, std::memory_order_relaxed);
  }
  flusher_heartbeat_nanos_.store(MonotonicNanos(),
                                 std::memory_order_release);
  flusher_ = std::thread(&DurabilityManager::FlusherLoop, this);
  return Status::OK();
}

uint64_t DurabilityManager::PendingShardBytes(uint32_t shard) const {
  if (shard_pending_bytes_ == nullptr || shard >= num_shards_) return 0;
  return shard_pending_bytes_[shard].load(std::memory_order_relaxed);
}

int64_t DurabilityManager::FlusherHeartbeatAgeNanos() const {
  const int64_t beat =
      flusher_heartbeat_nanos_.load(std::memory_order_acquire);
  if (beat == 0) return -1;
  return MonotonicNanos() - beat;
}

Status DurabilityManager::EnqueueAppend(uint32_t shard, uint64_t seq,
                                        const Message& msg) {
  if (writers_.empty()) return Status::OK();
  std::unique_lock<std::mutex> lk(buf_mu_);
  while (flusher_error_.ok() &&
         pending_bytes_ >= kWalMaxPendingBytes) {
    flusher_kick_ = true;
    flusher_cv_.notify_one();
    space_cv_.wait(lk);
  }
  if (!flusher_error_.ok()) return flusher_error_;
  // Encode straight into the flat pending buffer behind a fixed-width
  // length slot patched once the payload size is known: no scratch
  // string, no second copy, zero allocations in steady state.
  std::string& buf = pending_[shard];
  const size_t len_at = buf.size();
  PutFixed32(&buf, 0);
  EncodeWalRecord(seq, msg, &buf);
  const uint32_t payload_len =
      static_cast<uint32_t>(buf.size() - len_at - sizeof(uint32_t));
  EncodeFixed32(&buf[len_at], payload_len);
  pending_bytes_ += payload_len;
  shard_pending_bytes_[shard].fetch_add(buf.size() - len_at,
                                        std::memory_order_relaxed);
  ++pending_records_;
  last_enqueued_seq_ = seq;
  // The flusher polls at the group-commit cadence, so the common case
  // needs no wakeup (a condvar notify is a syscall — on the hot path it
  // shows up as a p99 spike on the first record of every batch). Notify
  // only when the byte threshold demands an early flush, or when no
  // interval is configured and the flusher sleeps indefinitely.
  if (pending_bytes_ >= kWalGroupCommitBytes ||
      options_.wal_group_commit_interval_us == 0) {
    flusher_cv_.notify_one();
  }
  return Status::OK();
}

Status DurabilityManager::WaitDurable(uint64_t seq) {
  if (writers_.empty()) return Status::OK();
  std::unique_lock<std::mutex> lk(buf_mu_);
  if (durable_seq_ >= seq) return Status::OK();
  flusher_kick_ = true;
  flusher_cv_.notify_one();
  durable_cv_.wait(lk, [&] {
    return durable_seq_ >= seq || !flusher_error_.ok();
  });
  if (durable_seq_ >= seq) return Status::OK();
  return flusher_error_;
}

uint64_t DurabilityManager::durable_seq() {
  std::lock_guard<std::mutex> lk(buf_mu_);
  return durable_seq_;
}

void DurabilityManager::FlusherLoop() {
  const auto interval =
      std::chrono::microseconds(options_.wal_group_commit_interval_us);
  // Double buffer: the drained set keeps its capacity between batches,
  // so the swap hands the producer warm buffers and nothing reallocates
  // in steady state.
  std::vector<std::string> draining(num_shards_);
  std::unique_lock<std::mutex> lk(buf_mu_);
  for (;;) {
    // Sleep until there is work. With a commit interval configured the
    // producer never notifies: the flusher polls at that cadence and
    // sweeps whatever accumulated. Urgent wakeups (shutdown, a
    // WaitDurable kick, the byte threshold, backpressure) still notify.
    while (pending_records_ == 0 && !flusher_stop_) {
      // A kick with nothing pending is already satisfied: everything
      // enqueued has been written and published.
      flusher_kick_ = false;
      flusher_heartbeat_nanos_.store(MonotonicNanos(),
                                     std::memory_order_release);
      if (interval.count() > 0) {
        flusher_cv_.wait_for(lk, interval);
      } else {
        flusher_cv_.wait(lk, [&] {
          return flusher_stop_ || flusher_kick_ || pending_records_ > 0;
        });
      }
    }
    if (pending_records_ == 0) return;  // stopping, fully drained
    // Accumulation window: absent urgency (shutdown, an explicit
    // WaitDurable kick, or the byte threshold), linger so concurrent
    // producers amortize one flush.
    if (!flusher_stop_ && !flusher_kick_ && interval.count() > 0 &&
        pending_bytes_ < kWalGroupCommitBytes) {
      flusher_cv_.wait_for(lk, interval, [&] {
        return flusher_stop_ || flusher_kick_ ||
               pending_bytes_ >= kWalGroupCommitBytes;
      });
    }
    flusher_kick_ = false;
    // Capture the watermark target BEFORE stealing: the producer is
    // serialized, so every sequence <= target is either in this batch
    // or already written.
    const uint64_t target = last_enqueued_seq_;
    const uint64_t batch_records = pending_records_;
    std::swap(pending_, draining);
    pending_bytes_ = 0;
    pending_records_ = 0;
    space_cv_.notify_all();
    lk.unlock();

    const int64_t t0 = MonotonicNanos();
    Status s = WriteBatch(draining);
    if (s.ok()) {
      // Only bytes that actually hit the WAL stop counting as pending:
      // a flusher stuck (or failed) mid-batch keeps showing its load.
      for (uint32_t i = 0; i < num_shards_; ++i) {
        shard_pending_bytes_[i].fetch_sub(draining[i].size(),
                                          std::memory_order_relaxed);
      }
    }
    flusher_heartbeat_nanos_.store(MonotonicNanos(),
                                   std::memory_order_release);
    for (std::string& buf : draining) buf.clear();
    if (flushes_counter_ != nullptr) flushes_counter_->Increment();
    if (flush_batch_hist_ != nullptr) {
      flush_batch_hist_->Observe(batch_records);
    }
    if (flush_hist_ != nullptr) {
      flush_hist_->Observe(
          static_cast<uint64_t>(MonotonicNanos() - t0));
    }

    lk.lock();
    if (!s.ok()) {
      // The WAL is broken: latch, wake everyone, and stop — accepting
      // more records would silently widen the durability hole.
      flusher_error_ = s;
      durable_cv_.notify_all();
      space_cv_.notify_all();
      return;
    }
    if (target > durable_seq_) durable_seq_ = target;
    durable_cv_.notify_all();
  }
}

Status DurabilityManager::WriteBatch(const std::vector<std::string>& batch) {
  if (options_.wal_flush_phase_hook_for_test) {
    options_.wal_flush_phase_hook_for_test(WalFlushPhase::kDequeued);
  }
  std::lock_guard<std::mutex> wl(writers_mu_);
  size_t touched = 0;
  for (const auto& buf : batch) touched += buf.empty() ? 0 : 1;
  size_t written = 0;
  for (uint32_t shard = 0; shard < num_shards_; ++shard) {
    std::string_view buf = batch[shard];
    if (buf.empty()) continue;
    const uint64_t before = writers_[shard]->appended_bytes();
    uint64_t records = 0;
    while (!buf.empty()) {
      uint32_t len = 0;
      if (!GetFixed32(&buf, &len) || len > buf.size()) {
        return Status::Internal("malformed group-commit batch buffer");
      }
      MICROPROV_RETURN_IF_ERROR(
          writers_[shard]->AppendEncoded(buf.substr(0, len)));
      buf.remove_prefix(len);
      ++records;
    }
    // The watermark published after this batch is what Flush() waits
    // on, so the records must leave the stdio buffer first.
    MICROPROV_RETURN_IF_ERROR(options_.wal_sync_every_append
                                  ? writers_[shard]->Sync()
                                  : writers_[shard]->Flush());
    if (appends_counter_ != nullptr) {
      appends_counter_->Increment(records);
    }
    if (append_bytes_counter_ != nullptr) {
      append_bytes_counter_->Increment(static_cast<uint64_t>(
          writers_[shard]->appended_bytes() - before));
    }
    ++written;
    if (written == 1 && touched > 1 &&
        options_.wal_flush_phase_hook_for_test) {
      options_.wal_flush_phase_hook_for_test(WalFlushPhase::kMidBatch);
    }
  }
  if (options_.wal_flush_phase_hook_for_test) {
    options_.wal_flush_phase_hook_for_test(WalFlushPhase::kPrePublish);
  }
  return Status::OK();
}

bool DurabilityManager::ShouldInstallDelta() const {
  return base_seq_ > 0 &&
         (seq_ - base_seq_ + 1) < options_.full_checkpoint_every;
}

Status DurabilityManager::InstallCheckpoint(
    const ServiceSnapshotView& snapshot) {
  const uint64_t new_seq = seq_ + 1;
  std::string encoded;
  EncodeServiceSnapshot(snapshot, &encoded);
  MICROPROV_RETURN_IF_ERROR(DurableWriteFile(
      options_.dir, CheckpointPath(new_seq), encoded));
  // Future appends belong to the next epoch; records already written
  // under epoch new_seq are covered by the snapshot just persisted.
  {
    std::lock_guard<std::mutex> wl(writers_mu_);
    for (auto& writer : writers_) {
      MICROPROV_RETURN_IF_ERROR(writer->RotateToEpoch(new_seq + 1));
    }
  }
  MICROPROV_RETURN_IF_ERROR(
      DurableWriteFile(options_.dir, options_.dir + "/" + kCurrentName,
                       StringPrintf("%" PRIu64 "\n", new_seq)));
  seq_ = new_seq;
  base_seq_ = new_seq;
  if (checkpoints_counter_ != nullptr) checkpoints_counter_->Increment();
  if (checkpoint_bytes_counter_ != nullptr) {
    checkpoint_bytes_counter_->Increment(
        static_cast<uint64_t>(encoded.size()));
  }
  // GC is advisory: a crash here leaves superseded files that the next
  // install sweeps again.
  return GarbageCollect();
}

Status DurabilityManager::InstallDelta(const ServiceDeltaView& delta) {
  if (delta.parent_seq != seq_) {
    return Status::InvalidArgument(StringPrintf(
        "delta parent %" PRIu64 " does not match checkpoint %" PRIu64,
        delta.parent_seq, seq_));
  }
  const uint64_t new_seq = seq_ + 1;
  std::string encoded;
  EncodeServiceDelta(delta, &encoded);
  MICROPROV_RETURN_IF_ERROR(
      DurableWriteFile(options_.dir, DeltaPath(new_seq), encoded));
  {
    std::lock_guard<std::mutex> wl(writers_mu_);
    for (auto& writer : writers_) {
      MICROPROV_RETURN_IF_ERROR(writer->RotateToEpoch(new_seq + 1));
    }
  }
  MICROPROV_RETURN_IF_ERROR(
      DurableWriteFile(options_.dir, options_.dir + "/" + kCurrentName,
                       StringPrintf("%" PRIu64 "\n", new_seq)));
  seq_ = new_seq;
  if (checkpoints_counter_ != nullptr) checkpoints_counter_->Increment();
  if (delta_checkpoints_counter_ != nullptr) {
    delta_checkpoints_counter_->Increment();
  }
  if (delta_bytes_counter_ != nullptr) {
    delta_bytes_counter_->Increment(static_cast<uint64_t>(encoded.size()));
  }
  // NO garbage collection: superseded WAL epochs and earlier deltas
  // stay on disk until the next base install, so losing this delta file
  // to bit-rot never loses data — recovery falls back to the chain
  // prefix and replays the retained WAL.
  return Status::OK();
}

Status DurabilityManager::GarbageCollect() {
  auto names_or = Env::Default()->ListDir(options_.dir);
  if (!names_or.ok()) return names_or.status();
  for (const std::string& name : *names_or) {
    uint64_t seq = 0;
    const bool stale_base = ParseCheckpointName(name, &seq) && seq < seq_;
    const bool stale_delta = ParseDeltaName(name, &seq) && seq <= seq_;
    if (stale_base || stale_delta) {
      MICROPROV_RETURN_IF_ERROR(
          Env::Default()->RemoveFile(options_.dir + "/" + name));
    }
  }
  for (uint32_t i = 0; i < num_shards_; ++i) {
    MICROPROV_RETURN_IF_ERROR(
        RemoveWalSegmentsThrough(ShardWalDir(i), seq_));
  }
  return Status::OK();
}

Status DurabilityManager::Close() {
  {
    std::lock_guard<std::mutex> lk(buf_mu_);
    flusher_stop_ = true;
    flusher_cv_.notify_one();
  }
  if (flusher_.joinable()) flusher_.join();
  Status result = flusher_error_;
  std::lock_guard<std::mutex> wl(writers_mu_);
  for (auto& writer : writers_) {
    Status close = writer->Close();
    if (result.ok()) result = close;
  }
  writers_.clear();
  return result;
}

}  // namespace recovery
}  // namespace microprov
