// In-process recovery tests for the Service durability path: the
// "crash" here is destroying the Service without Drain() (workers are
// joined but no final checkpoint is written), so recovery exercises
// checkpoint load + WAL tail replay. Out-of-process SIGKILL coverage
// lives in crash_recovery_test.cc.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/env.h"
#include "common/string_util.h"
#include "gen/generator.h"
#include "recovery/wal.h"
#include "service/service.h"
#include "storage/bundle_codec.h"
#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::ScopedTempDir;

std::vector<Message> GeneratedStream(uint64_t seed, uint64_t count) {
  GeneratorOptions gen;
  gen.seed = seed;
  gen.total_messages = count;
  gen.num_users = 50;
  return StreamGenerator(gen).Generate();
}

ServiceOptions RecoverableOptions(const std::string& dir) {
  ServiceOptions options;
  options.num_shards = 3;
  options.engine =
      EngineOptions::ForConfig(IndexConfig::kBundleLimit, 300, 60);
  // Recovery determinism requires the fanout cap off: truncation order
  // depends on posting insertion history, which import rebuilds in id
  // order (DESIGN.md §11).
  options.engine.matcher.max_posting_fanout = 0;
  options.durability.dir = dir;
  return options;
}

/// Reference state: same stream through a service with no durability.
std::unique_ptr<Service> ReferenceService(
    const std::vector<Message>& messages) {
  ServiceOptions options = RecoverableOptions("");
  options.durability = {};
  auto service_or = Service::Open(options);
  EXPECT_TRUE(service_or.ok());
  for (const Message& msg : messages) {
    EXPECT_TRUE((*service_or)->Ingest(msg).ok());
  }
  EXPECT_TRUE((*service_or)->Flush().ok());
  return std::move(*service_or);
}

/// Query probes drawn from the stream itself (generated hashtags come
/// from a seeded word model, so they are not predictable by name).
std::vector<std::string> ProbeQueries(const std::vector<Message>& messages) {
  std::vector<std::string> probes;
  for (const Message& msg : messages) {
    if (probes.size() >= 5) break;
    if (msg.hashtags.empty()) continue;
    std::string probe = "#" + msg.hashtags.front();
    bool seen = false;
    for (const std::string& p : probes) seen = seen || p == probe;
    if (!seen) probes.push_back(probe);
  }
  return probes;
}

/// Recovered and reference services must agree on everything a caller
/// can observe: aggregate stats, per-shard pool shapes, and ranked
/// query results.
void ExpectServicesEqual(Service& recovered, Service& reference,
                         const std::vector<Message>& messages) {
  ASSERT_TRUE(recovered.Flush().ok());
  ServiceStats a = recovered.Stats();
  ServiceStats b = reference.Stats();
  EXPECT_EQ(a.messages_ingested, b.messages_ingested);
  EXPECT_EQ(a.live_bundles, b.live_bundles);
  ASSERT_EQ(recovered.num_shards(), reference.num_shards());
  for (size_t i = 0; i < recovered.num_shards(); ++i) {
    const ProvenanceEngine& ea = recovered.sharded().shard(i);
    const ProvenanceEngine& eb = reference.sharded().shard(i);
    EXPECT_EQ(ea.messages_ingested(), eb.messages_ingested())
        << "shard " << i;
    EXPECT_EQ(ea.pool().size(), eb.pool().size()) << "shard " << i;
    EXPECT_EQ(ea.pool().next_id(), eb.pool().next_id()) << "shard " << i;
    EXPECT_EQ(ea.dictionary().TotalTerms(), eb.dictionary().TotalTerms())
        << "shard " << i;
  }
  EXPECT_EQ(recovered.Now(), reference.Now());
  std::vector<std::string> probes = ProbeQueries(messages);
  ASSERT_FALSE(probes.empty());
  for (const std::string& text : probes) {
    auto ra = recovered.Search({.text = text, .k = 10});
    auto rb = reference.Search({.text = text, .k = 10});
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    ASSERT_EQ(ra->size(), rb->size()) << text;
    for (size_t i = 0; i < ra->size(); ++i) {
      EXPECT_EQ((*ra)[i].bundle, (*rb)[i].bundle) << text;
      EXPECT_EQ((*ra)[i].shard, (*rb)[i].shard) << text;
      EXPECT_EQ((*ra)[i].size, (*rb)[i].size) << text;
      EXPECT_DOUBLE_EQ((*ra)[i].score, (*rb)[i].score) << text;
    }
  }
}

TEST(ServiceRecoveryTest, WalOnlyRecoveryRebuildsFullState) {
  ScopedTempDir dir;
  auto messages = GeneratedStream(21, 400);
  {
    auto service_or = Service::Open(RecoverableOptions(dir.path()));
    ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
    for (const Message& msg : messages) {
      ASSERT_TRUE((*service_or)->Ingest(msg).ok());
    }
    ASSERT_TRUE((*service_or)->Flush().ok());
    // No Drain: the service dies with only the WAL on disk.
  }

  auto recovered_or = Service::Open(RecoverableOptions(dir.path()));
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_EQ((*recovered_or)->Stats().replayed_messages, messages.size());

  auto reference = ReferenceService(messages);
  ExpectServicesEqual(**recovered_or, *reference, messages);
}

TEST(ServiceRecoveryTest, CheckpointPlusTailReplayMatchesReference) {
  ScopedTempDir dir;
  auto messages = GeneratedStream(22, 600);
  {
    auto service_or = Service::Open(RecoverableOptions(dir.path()));
    ASSERT_TRUE(service_or.ok());
    for (size_t i = 0; i < messages.size(); ++i) {
      ASSERT_TRUE((*service_or)->Ingest(messages[i]).ok());
      if (i == 399) {
        ASSERT_TRUE((*service_or)->Checkpoint().ok());
      }
    }
    ASSERT_TRUE((*service_or)->Flush().ok());
    ServiceStats stats = (*service_or)->Stats();
    EXPECT_EQ(stats.checkpoints_installed, 1u);
    EXPECT_EQ(stats.wal_appended_messages, messages.size());
    EXPECT_GT(stats.wal_appended_bytes, 0u);
  }

  auto recovered_or = Service::Open(RecoverableOptions(dir.path()));
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  // Only the 200-message tail is replayed; the rest came from the
  // checkpoint image.
  ASSERT_NE((*recovered_or)->durability(), nullptr);
  EXPECT_EQ((*recovered_or)->durability()->checkpoint_seq(), 1u);
  EXPECT_EQ((*recovered_or)->Stats().replayed_messages, 200u);

  auto reference = ReferenceService(messages);
  ExpectServicesEqual(**recovered_or, *reference, messages);
}

TEST(ServiceRecoveryTest, AutoCheckpointTruncatesWalAndRecovers) {
  ScopedTempDir dir;
  auto messages = GeneratedStream(23, 500);
  ServiceOptions options = RecoverableOptions(dir.path());
  options.durability.checkpoint_every_messages = 150;
  // Full-base mode: every install garbage-collects, which is the WAL
  // truncation behaviour this test pins. Incremental chains retain
  // superseded epochs by design (see the delta-chain tests below).
  options.durability.full_checkpoint_every = 1;
  {
    auto service_or = Service::Open(options);
    ASSERT_TRUE(service_or.ok());
    for (const Message& msg : messages) {
      ASSERT_TRUE((*service_or)->Ingest(msg).ok());
    }
    EXPECT_EQ((*service_or)->Stats().checkpoints_installed, 3u);
  }
  // Superseded WAL epochs were truncated: all three shard dirs together
  // hold only post-checkpoint segments (epoch 4).
  for (uint32_t shard = 0; shard < 3; ++shard) {
    auto segments_or = recovery::ListWalSegments(
        dir.path() + "/wal/shard-" + std::to_string(shard));
    ASSERT_TRUE(segments_or.ok());
    for (const recovery::WalSegment& segment : *segments_or) {
      EXPECT_EQ(segment.epoch, 4u) << segment.path;
    }
  }

  auto recovered_or = Service::Open(options);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_EQ((*recovered_or)->Stats().replayed_messages, 50u);
  auto reference = ReferenceService(messages);
  ExpectServicesEqual(**recovered_or, *reference, messages);
}

TEST(ServiceRecoveryTest, DrainSealsStateSoReopenReplaysNothing) {
  ScopedTempDir dir;
  auto messages = GeneratedStream(24, 300);
  ServiceOptions options = RecoverableOptions(dir.path());
  options.archive_dir = dir.path() + "/archive";
  uint64_t archived = 0;
  {
    auto service_or = Service::Open(options);
    ASSERT_TRUE(service_or.ok());
    for (const Message& msg : messages) {
      ASSERT_TRUE((*service_or)->Ingest(msg).ok());
    }
    ASSERT_TRUE((*service_or)->Drain().ok());
    archived = (*service_or)->Stats().archived_bundles;
    EXPECT_GT(archived, 0u);
  }

  auto recovered_or = Service::Open(options);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  Service& recovered = **recovered_or;
  EXPECT_EQ(recovered.Stats().replayed_messages, 0u);
  EXPECT_EQ(recovered.Stats().messages_ingested, messages.size());
  // Drained bundles live in the archive; queries reach them there.
  EXPECT_EQ(recovered.Stats().archived_bundles, archived);
  std::vector<std::string> probes = ProbeQueries(messages);
  ASSERT_FALSE(probes.empty());
  auto results_or = recovered.Search({.text = probes.front(), .k = 5});
  ASSERT_TRUE(results_or.ok());
  EXPECT_FALSE(results_or->empty());
}

TEST(ServiceRecoveryTest, RecoveredServiceKeepsIngestingAndLogging) {
  ScopedTempDir dir;
  auto messages = GeneratedStream(25, 400);
  {
    auto service_or = Service::Open(RecoverableOptions(dir.path()));
    ASSERT_TRUE(service_or.ok());
    for (size_t i = 0; i < 200; ++i) {
      ASSERT_TRUE((*service_or)->Ingest(messages[i]).ok());
    }
    ASSERT_TRUE((*service_or)->Flush().ok());
  }
  {
    // Recover, ingest the second half (now logged to a fresh WAL part),
    // crash again.
    auto service_or = Service::Open(RecoverableOptions(dir.path()));
    ASSERT_TRUE(service_or.ok());
    for (size_t i = 200; i < messages.size(); ++i) {
      ASSERT_TRUE((*service_or)->Ingest(messages[i]).ok());
    }
    ASSERT_TRUE((*service_or)->Flush().ok());
  }

  auto recovered_or = Service::Open(RecoverableOptions(dir.path()));
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_EQ((*recovered_or)->Stats().replayed_messages, messages.size());
  auto reference = ReferenceService(messages);
  ExpectServicesEqual(**recovered_or, *reference, messages);
}

TEST(ServiceRecoveryTest, ShardCountMismatchIsRejected) {
  ScopedTempDir dir;
  ServiceOptions options = RecoverableOptions(dir.path());
  {
    auto service_or = Service::Open(options);
    ASSERT_TRUE(service_or.ok());
    for (const Message& msg : GeneratedStream(26, 100)) {
      ASSERT_TRUE((*service_or)->Ingest(msg).ok());
    }
    ASSERT_TRUE((*service_or)->Checkpoint().ok());
  }
  options.num_shards = 5;
  EXPECT_FALSE(Service::Open(options).ok());
}

TEST(ServiceRecoveryTest, IncrementalDeltaChainRecoversExactly) {
  // Automatic checkpoints after the first become deltas; recovery
  // resolves base + chain and replays only the post-chain tail, and the
  // recovered state is indistinguishable from never having crashed.
  ScopedTempDir dir;
  auto messages = GeneratedStream(27, 500);
  ServiceOptions options = RecoverableOptions(dir.path());
  options.durability.checkpoint_every_messages = 150;
  {
    auto service_or = Service::Open(options);
    ASSERT_TRUE(service_or.ok());
    for (const Message& msg : messages) {
      ASSERT_TRUE((*service_or)->Ingest(msg).ok());
    }
    EXPECT_EQ((*service_or)->Stats().checkpoints_installed, 3u);
  }
  // Install 1 was the base, 2 and 3 were deltas. Delta installs retain
  // the WAL epochs they supersede (losing a delta file to bit-rot must
  // never lose data), so epochs 2 and 3 survive alongside the live
  // epoch 4; only epoch 1, superseded by the *base*, was collected.
  ASSERT_TRUE(
      Env::Default()->FileExists(dir.path() + "/checkpoint-0000000001.snap"));
  ASSERT_TRUE(Env::Default()->FileExists(dir.path() +
                                         "/checkpoint-0000000003.delta"));
  for (uint32_t shard = 0; shard < 3; ++shard) {
    auto segments_or = recovery::ListWalSegments(
        dir.path() + "/wal/shard-" + std::to_string(shard));
    ASSERT_TRUE(segments_or.ok());
    for (const recovery::WalSegment& segment : *segments_or) {
      EXPECT_GE(segment.epoch, 2u) << segment.path;
    }
  }

  auto recovered_or = Service::Open(options);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  ASSERT_NE((*recovered_or)->durability(), nullptr);
  EXPECT_EQ((*recovered_or)->durability()->checkpoint_seq(), 3u);
  EXPECT_EQ((*recovered_or)->durability()->base_checkpoint_seq(), 1u);
  EXPECT_EQ((*recovered_or)->Stats().replayed_messages, 50u);
  auto reference = ReferenceService(messages);
  ExpectServicesEqual(**recovered_or, *reference, messages);
}

TEST(ServiceRecoveryTest, FullCheckpointEveryBoundsDeltaChain) {
  ScopedTempDir dir;
  auto messages = GeneratedStream(28, 300);
  ServiceOptions options = RecoverableOptions(dir.path());
  options.durability.checkpoint_every_messages = 100;
  options.durability.full_checkpoint_every = 2;
  {
    auto service_or = Service::Open(options);
    ASSERT_TRUE(service_or.ok());
    for (const Message& msg : messages) {
      ASSERT_TRUE((*service_or)->Ingest(msg).ok());
    }
    // base(1) -> delta(2) -> chain full -> base(3).
    ASSERT_NE((*service_or)->durability(), nullptr);
    EXPECT_EQ((*service_or)->durability()->checkpoint_seq(), 3u);
    EXPECT_EQ((*service_or)->durability()->base_checkpoint_seq(), 3u);
  }
  ASSERT_TRUE(
      Env::Default()->FileExists(dir.path() + "/checkpoint-0000000003.snap"));
  // The base at 3 garbage-collected the old base and the whole chain.
  EXPECT_FALSE(
      Env::Default()->FileExists(dir.path() + "/checkpoint-0000000001.snap"));
  EXPECT_FALSE(Env::Default()->FileExists(dir.path() +
                                          "/checkpoint-0000000002.delta"));

  auto recovered_or = Service::Open(options);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  auto reference = ReferenceService(messages);
  ExpectServicesEqual(**recovered_or, *reference, messages);
}

TEST(ServiceRecoveryTest, BitRottedDeltaFallsBackToBasePlusWal) {
  // Corrupting a delta file mid-chain must cost nothing: the chain
  // truncates at its predecessor and the retained WAL epochs cover the
  // difference, so recovery is still byte-for-byte complete.
  ScopedTempDir dir;
  auto messages = GeneratedStream(29, 300);
  ServiceOptions options = RecoverableOptions(dir.path());
  {
    auto service_or = Service::Open(options);
    ASSERT_TRUE(service_or.ok());
    for (size_t i = 0; i < messages.size(); ++i) {
      ASSERT_TRUE((*service_or)->Ingest(messages[i]).ok());
      if (i == 99 || i == 199) {
        ASSERT_TRUE((*service_or)->Checkpoint().ok());
      }
    }
    ASSERT_TRUE((*service_or)->Flush().ok());
  }
  const std::string delta = dir.path() + "/checkpoint-0000000002.delta";
  std::string contents;
  ASSERT_TRUE(Env::Default()->ReadFileToString(delta, &contents).ok());
  contents[contents.size() / 2] ^= 0x20;
  ASSERT_TRUE(Env::Default()->WriteStringToFile(delta, contents).ok());

  auto recovered_or = Service::Open(options);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  // The chain resolved to the base alone; epochs 2 and 3 replayed the
  // 200 messages the rejected delta would have carried.
  EXPECT_EQ((*recovered_or)->durability()->checkpoint_seq(), 1u);
  EXPECT_EQ((*recovered_or)->Stats().replayed_messages, 200u);
  auto reference = ReferenceService(messages);
  ExpectServicesEqual(**recovered_or, *reference, messages);
}

TEST(ServiceRecoveryTest, RejectedSubmitNeverReachesWal) {
  // Regression for the dual-write window: Ingest used to append to the
  // WAL *before* Submit, so a message the pipeline rejected was already
  // durable and came back from the dead on recovery. The fixed order
  // logs only what a shard accepted.
  ScopedTempDir dir;
  auto messages = GeneratedStream(30, 40);
  ServiceOptions options = RecoverableOptions(dir.path());
  options.durability.checkpoint_every_messages = 0;
  options.engine.ingest_fault_for_test = [](const Message& msg) {
    if (msg.user == "poison") {
      return Status::Internal("injected ingest fault");
    }
    return Status::OK();
  };
  {
    auto service_or = Service::Open(options);
    ASSERT_TRUE(service_or.ok());
    for (const Message& msg : messages) {
      ASSERT_TRUE((*service_or)->Ingest(msg).ok());
    }
    ASSERT_TRUE((*service_or)->Flush().ok());
    // The poisoned message is *accepted* (Submit enqueues it and Ingest
    // acks), so it legitimately reaches the WAL; the fault fires on the
    // shard worker afterwards and latches the pipeline error.
    Message poison = messages.front();
    poison.id = 1000001;
    poison.user = "poison";
    poison.urls.clear();
    poison.hashtags.clear();
    ASSERT_TRUE((*service_or)->Ingest(poison).ok());
    EXPECT_FALSE((*service_or)->Flush().ok());  // error latched
    // Now Submit itself rejects. Pre-fix, this message was already in
    // the WAL by the time Submit failed. Routing follows the re-shared
    // author ("poison"), so it lands on the shard holding the error.
    Message rejected = messages.front();
    rejected.id = 1000002;
    rejected.user = "someone";
    rejected.urls.clear();
    rejected.hashtags = {"neverdurable"};
    rejected.is_retweet = true;
    rejected.retweet_of_user = "poison";
    rejected.retweet_of_id = 1000001;
    EXPECT_FALSE((*service_or)->Ingest(rejected).ok());
  }

  // Recover without the fault: the poisoned message replays cleanly
  // (it was acked), the rejected one must not exist anywhere.
  options.engine.ingest_fault_for_test = nullptr;
  auto recovered_or = Service::Open(options);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_EQ((*recovered_or)->Stats().replayed_messages,
            messages.size() + 1);
  auto results_or =
      (*recovered_or)->Search({.text = "#neverdurable", .k = 5});
  ASSERT_TRUE(results_or.ok());
  EXPECT_TRUE(results_or->empty());
}

TEST(ServiceRecoveryTest, FlushPutsEveryAcceptedMessageInTheWalFiles) {
  // The Flush() contract: once it returns, every accepted message is in
  // the WAL files, not in a user-space write buffer that a SIGKILL
  // would lose. Read the segments from disk while the service is still
  // open and holds its writers.
  ScopedTempDir dir;
  auto messages = GeneratedStream(41, 400);
  ServiceOptions options = RecoverableOptions(dir.path());
  options.num_shards = 2;
  auto service_or = Service::Open(options);
  ASSERT_TRUE(service_or.ok());
  for (const Message& msg : messages) {
    ASSERT_TRUE((*service_or)->Ingest(msg).ok());
  }
  ASSERT_TRUE((*service_or)->Flush().ok());

  std::vector<int> seen(messages.size() + 1, 0);
  for (int shard = 0; shard < 2; ++shard) {
    recovery::WalReplayStats stats;
    auto tail_or = recovery::ReadWalTail(
        dir.path() + "/wal/shard-" + std::to_string(shard), 0, &stats);
    ASSERT_TRUE(tail_or.ok()) << tail_or.status().ToString();
    for (const recovery::WalTailRecord& record : *tail_or) {
      ASSERT_GE(record.seq, 1u);
      ASSERT_LE(record.seq, messages.size());
      ++seen[record.seq];
    }
  }
  for (size_t seq = 1; seq <= messages.size(); ++seq) {
    EXPECT_EQ(seen[seq], 1) << "seq " << seq;
  }
}

TEST(ServiceRecoveryTest, CheckpointHistogramCoversTheWholeIngestStall) {
  ScopedTempDir dir;
  auto messages = GeneratedStream(29, 800);
  ServiceOptions options = RecoverableOptions(dir.path());
  options.durability.checkpoint_every_messages = 200;
  auto service_or = Service::Open(options);
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  uint64_t longest_checkpointing = 0;
  uint64_t longest_plain = 0;
  for (size_t i = 0; i < messages.size(); ++i) {
    const int64_t start = MonotonicNanos();
    ASSERT_TRUE(service.Ingest(messages[i]).ok());
    const auto took = static_cast<uint64_t>(MonotonicNanos() - start);
    uint64_t& longest =
        (i + 1) % 200 == 0 ? longest_checkpointing : longest_plain;
    longest = std::max(longest, took);
  }
  obs::MetricsRegistry* metrics = service.metrics();
  const obs::HistogramStats whole =
      metrics->GetHistogram("microprov_checkpoint_nanos")->Snapshot();
  ASSERT_EQ(whole.count, 4u);
  // A checkpointing call is the checkpoint plus the submit and WAL
  // enqueue every call makes, which no plain call took longer than.
  EXPECT_GE(whole.max + longest_plain, longest_checkpointing);
  double stages = 0;
  for (const char* stage : {"barrier", "capture", "install"}) {
    obs::HistogramMetric* hist = metrics->GetHistogram(
        "microprov_checkpoint_stage_nanos",
        StringPrintf("stage=\"%s\"", stage));
    const obs::HistogramStats part = hist->Snapshot();
    EXPECT_EQ(part.count, 4u) << stage;
    EXPECT_GT(part.max, 0u) << stage;
    stages += part.sum;
  }
  EXPECT_NEAR(stages, whole.sum, 1e-6 * whole.sum);
}

TEST(ServiceRecoveryTest, RecoveryStagesSumWithinOpen) {
  // Every stage of a reopen with an archive, a checkpoint chain and a
  // WAL tail is observed once, and together they fit inside Open.
  ScopedTempDir dir;
  ServiceOptions options = RecoverableOptions(dir.path() + "/durable");
  options.archive_dir = dir.path() + "/archive";
  options.num_shards = 2;
  options.engine.pool.max_pool_size = 2;  // per-shard floor: spills
  options.durability.checkpoint_every_messages = 1000;
  auto messages = GeneratedStream(35, 3100);
  {
    auto service_or = Service::Open(options);
    ASSERT_TRUE(service_or.ok());
    for (const Message& msg : messages) {
      ASSERT_TRUE((*service_or)->Ingest(msg).ok());
    }
    ASSERT_TRUE((*service_or)->Flush().ok());
    EXPECT_GT((*service_or)->Stats().archived_bundles, 0u);
  }
  const int64_t start = MonotonicNanos();
  auto service_or = Service::Open(options);
  const auto open_nanos = static_cast<double>(MonotonicNanos() - start);
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  EXPECT_EQ((*service_or)->Stats().replayed_messages, 100u);
  double stages = 0;
  for (const char* stage :
       {"archive_open", "checkpoint_load", "import", "wal_read", "replay"}) {
    const obs::HistogramStats part =
        (*service_or)
            ->metrics()
            ->GetHistogram("microprov_recovery_stage_nanos",
                           StringPrintf("stage=\"%s\"", stage))
            ->Snapshot();
    EXPECT_EQ(part.count, 1u) << stage;
    EXPECT_GT(part.max, 0u) << stage;
    stages += part.sum;
  }
  EXPECT_LE(stages, open_nanos);
}

TEST(ServiceRecoveryTest, PowerLossModeSyncsBundleStoresAtCheckpoints) {
  // With wal_sync_every_append (power-loss durability) each checkpoint
  // fsyncs every shard's archive before the install can collect the WAL
  // epochs that spilled into it; the default mode only flushes them.
  for (bool power_loss : {false, true}) {
    ScopedTempDir dir;
    ServiceOptions options = RecoverableOptions(dir.path() + "/durable");
    options.archive_dir = dir.path() + "/archive";
    options.num_shards = 2;
    options.engine.pool.max_pool_size = 2;  // per-shard floor: spills
    options.durability.wal_sync_every_append = power_loss;
    auto service_or = Service::Open(options);
    ASSERT_TRUE(service_or.ok());
    Service& service = **service_or;
    for (const Message& msg : GeneratedStream(31, 3000)) {
      ASSERT_TRUE(service.Ingest(msg).ok());
    }
    ASSERT_TRUE(service.Checkpoint().ok());
    ASSERT_TRUE(service.Checkpoint().ok());
    EXPECT_GT(service.Stats().archived_bundles, 0u);
    const uint64_t syncs =
        service.metrics()->GetCounter("microprov_store_syncs_total")->value();
    EXPECT_EQ(syncs, power_loss ? 2 * options.num_shards : 0u) << power_loss;
  }
}

/// Every live bundle's EncodeBundle record, keyed by (shard, id). Call
/// after Flush: the shard engines are quiescent.
std::map<std::pair<size_t, BundleId>, std::string> LiveRecords(
    const Service& service) {
  std::map<std::pair<size_t, BundleId>, std::string> records;
  for (size_t i = 0; i < service.num_shards(); ++i) {
    const EngineStateView state = service.sharded().shard(i).ExportState();
    for (const Bundle* bundle : state.bundles) {
      EncodeBundle(*bundle, &records[{i, bundle->id()}]);
    }
  }
  return records;
}

bool FileHolds(const std::string& path, const std::string& bytes) {
  std::string contents;
  EXPECT_TRUE(Env::Default()->ReadFileToString(path, &contents).ok());
  return contents.find(bytes) != std::string::npos;
}

/// Makes `record`, which the checkpoint file at `path` holds verbatim,
/// malformed: its last message's connection type (one varint byte before
/// the fixed32 score that ends the record) goes past kText. The file's
/// CRC trailer is recomputed, so only the per-record check can reject
/// the file.
void CorruptRecordKeepingCrc(const std::string& path,
                             const std::string& record) {
  std::string contents;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &contents).ok());
  const size_t at = contents.find(record);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(contents.find(record, at + 1), std::string::npos);
  contents[at + record.size() - 5] = 0x7f;
  contents.resize(contents.size() - 4);
  PutFixed32(&contents, crc32c::Mask(crc32c::Value(contents)));
  ASSERT_TRUE(Env::Default()->WriteStringToFile(path, contents).ok());
}

TEST(ServiceRecoveryTest, MalformedSupersededDeltaRecordTruncatesChain) {
  // A record that a later delta supersedes is still checked: the delta
  // holding it is rejected and the chain stops at its predecessor,
  // whatever the rest of the chain would have overwritten.
  ScopedTempDir dir;
  auto messages = GeneratedStream(33, 400);
  ServiceOptions options = RecoverableOptions(dir.path());
  std::map<std::pair<size_t, BundleId>, std::string> at_delta2;
  std::map<std::pair<size_t, BundleId>, std::string> at_delta3;
  {
    auto service_or = Service::Open(options);
    ASSERT_TRUE(service_or.ok());
    Service& service = **service_or;
    for (size_t i = 0; i < messages.size(); ++i) {
      ASSERT_TRUE(service.Ingest(messages[i]).ok());
      if (i == 99 || i == 199 || i == 299) {
        ASSERT_TRUE(service.Flush().ok());
        if (i == 199) at_delta2 = LiveRecords(service);
        if (i == 299) at_delta3 = LiveRecords(service);
        ASSERT_TRUE(service.Checkpoint().ok());
      }
    }
    ASSERT_TRUE(service.Flush().ok());
  }
  const std::string delta2 = dir.path() + "/checkpoint-0000000002.delta";
  const std::string delta3 = dir.path() + "/checkpoint-0000000003.delta";
  const std::string* superseded = nullptr;
  for (const auto& [key, record] : at_delta2) {
    auto later = at_delta3.find(key);
    if (later == at_delta3.end() || later->second == record) continue;
    if (FileHolds(delta2, record) && FileHolds(delta3, later->second)) {
      superseded = &record;
      break;
    }
  }
  ASSERT_NE(superseded, nullptr) << "no bundle rewritten by both deltas";
  CorruptRecordKeepingCrc(delta2, *superseded);

  auto recovered_or = Service::Open(options);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_EQ((*recovered_or)->durability()->checkpoint_seq(), 1u);
  EXPECT_EQ((*recovered_or)->Stats().replayed_messages, 300u);
  auto reference = ReferenceService(messages);
  ExpectServicesEqual(**recovered_or, *reference, messages);
}

TEST(ServiceRecoveryTest, MalformedBaseRecordFallsBackToPreviousBase) {
  // Base 2 holds one malformed record behind a valid CRC: recovery
  // falls back to base 1 and replays the WAL from there. A base install
  // collects the previous base and the epochs it covers, so the test
  // keeps copies of both and puts them back.
  ScopedTempDir dir;
  auto messages = GeneratedStream(34, 300);
  ServiceOptions options = RecoverableOptions(dir.path());
  options.durability.full_checkpoint_every = 1;
  const std::string base1 = dir.path() + "/checkpoint-0000000001.snap";
  const std::string base2 = dir.path() + "/checkpoint-0000000002.snap";
  std::vector<std::pair<std::string, std::string>> kept;
  std::map<std::pair<size_t, BundleId>, std::string> at_base2;
  {
    auto service_or = Service::Open(options);
    ASSERT_TRUE(service_or.ok());
    Service& service = **service_or;
    for (size_t i = 0; i < messages.size(); ++i) {
      ASSERT_TRUE(service.Ingest(messages[i]).ok());
      if (i == 99) {
        ASSERT_TRUE(service.Checkpoint().ok());
      }
      if (i == 199) {
        ASSERT_TRUE(service.Flush().ok());
        std::vector<std::string> paths = {base1};
        for (uint32_t shard = 0; shard < options.num_shards; ++shard) {
          auto segments_or = recovery::ListWalSegments(
              dir.path() + "/wal/shard-" + std::to_string(shard));
          ASSERT_TRUE(segments_or.ok());
          for (const recovery::WalSegment& segment : *segments_or) {
            paths.push_back(segment.path);
          }
        }
        for (const std::string& path : paths) {
          std::string contents;
          ASSERT_TRUE(
              Env::Default()->ReadFileToString(path, &contents).ok());
          kept.emplace_back(path, std::move(contents));
        }
        at_base2 = LiveRecords(service);
        ASSERT_TRUE(service.Checkpoint().ok());
      }
    }
    ASSERT_TRUE(service.Flush().ok());
  }
  ASSERT_FALSE(Env::Default()->FileExists(base1));
  for (const auto& [path, contents] : kept) {
    ASSERT_TRUE(Env::Default()->WriteStringToFile(path, contents).ok());
  }
  ASSERT_FALSE(at_base2.empty());
  CorruptRecordKeepingCrc(base2, at_base2.begin()->second);

  auto recovered_or = Service::Open(options);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  EXPECT_EQ((*recovered_or)->durability()->checkpoint_seq(), 1u);
  EXPECT_EQ((*recovered_or)->Stats().replayed_messages, 200u);
  auto reference = ReferenceService(messages);
  ExpectServicesEqual(**recovered_or, *reference, messages);
}

}  // namespace
}  // namespace microprov
