#include "recovery/snapshot.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "core/engine.h"
#include "gen/generator.h"
#include "storage/bundle_codec.h"
#include "testing/alloc_counter.h"
#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::kTestEpoch;
using testing_util::MakeMessage;
using testing_util::MakeRetweet;

std::vector<Message> GeneratedStream(uint64_t seed, uint64_t count) {
  GeneratorOptions gen;
  gen.seed = seed;
  gen.total_messages = count;
  gen.num_users = 40;
  return StreamGenerator(gen).Generate();
}

EngineOptions DeterministicOptions() {
  EngineOptions options =
      EngineOptions::ForConfig(IndexConfig::kBundleLimit, 128, 40);
  // Posting-fanout truncation depends on posting-list insertion history,
  // which an import rebuilds in id order rather than arrival order; the
  // recovery contract therefore requires the cap disabled (see
  // DESIGN.md §11).
  options.matcher.max_posting_fanout = 0;
  return options;
}

void IngestAll(ProvenanceEngine* engine, SimulatedClock* clock,
               const std::vector<Message>& messages) {
  for (const Message& msg : messages) {
    clock->Advance(msg.date);
    ASSERT_TRUE(engine->Ingest(msg).ok());
  }
}

/// What recovery imports: the engine's checkpoint encoding, decoded.
EngineState Recovered(const ProvenanceEngine& engine) {
  std::string encoded;
  recovery::EncodeEngineState(engine.ExportState(), &encoded);
  std::string_view input(encoded);
  EngineState state;
  EXPECT_TRUE(recovery::DecodeEngineState(&input, &state).ok());
  EXPECT_TRUE(input.empty());
  return state;
}

/// Engines are equal when their durable surfaces agree: message count,
/// dictionary, and every bundle's full member/edge/count state (via the
/// pinned bundle codec, which covers messages, indicant counts, edges,
/// open/closed, and time ranges).
void ExpectEnginesEqual(const ProvenanceEngine& a,
                        const ProvenanceEngine& b) {
  EXPECT_EQ(a.messages_ingested(), b.messages_ingested());
  EXPECT_EQ(a.pool().size(), b.pool().size());
  EXPECT_EQ(a.pool().next_id(), b.pool().next_id());
  ASSERT_EQ(a.dictionary().TotalTerms(), b.dictionary().TotalTerms());
  for (int t = 0; t < kNumIndicantTypes; ++t) {
    const auto type = static_cast<IndicantType>(t);
    ASSERT_EQ(a.dictionary().NumTerms(type), b.dictionary().NumTerms(type));
    for (TermId id = 0;
         id < static_cast<TermId>(a.dictionary().NumTerms(type)); ++id) {
      EXPECT_EQ(a.dictionary().Resolve(type, id),
                b.dictionary().Resolve(type, id));
    }
  }
  EXPECT_EQ(a.summary_index().num_keys(), b.summary_index().num_keys());
  EngineStateView sa = a.ExportState();
  EngineStateView sb = b.ExportState();
  ASSERT_EQ(sa.bundles.size(), sb.bundles.size());
  for (size_t i = 0; i < sa.bundles.size(); ++i) {
    std::string ea, eb;
    EncodeBundle(*sa.bundles[i], &ea);
    EncodeBundle(*sb.bundles[i], &eb);
    EXPECT_EQ(ea, eb) << "bundle " << sa.bundles[i]->id() << " diverged";
  }
}

/// Reference for the checkpoint capture: an owning state holding a
/// clone of every live bundle.
EngineState CloneReference(const ProvenanceEngine& engine) {
  EngineState state;
  state.messages_ingested = engine.messages_ingested();
  state.next_bundle_id = engine.pool().next_id();
  state.pool_stats = engine.pool().stats();
  for (int t = 0; t < kNumIndicantTypes; ++t) {
    const auto type = static_cast<IndicantType>(t);
    for (TermId id = 0;
         id < static_cast<TermId>(engine.dictionary().NumTerms(type)); ++id) {
      state.terms[t].push_back(engine.dictionary().Resolve(type, id));
    }
  }
  for (const auto& [id, bundle] : engine.pool().bundles()) {
    state.bundles.push_back(CloneBundle(*bundle, nullptr));
  }
  std::sort(state.bundles.begin(), state.bundles.end(),
            [](const auto& a, const auto& b) { return a->id() < b->id(); });
  return state;
}

/// The same delta with every borrowed bundle and term copied out.
EngineDelta CloneReference(const EngineDeltaView& view) {
  EngineDelta delta;
  delta.messages_ingested = view.messages_ingested;
  delta.next_bundle_id = view.next_bundle_id;
  delta.pool_stats = view.pool_stats;
  for (int t = 0; t < kNumIndicantTypes; ++t) {
    delta.base_terms[t] = view.base_terms[t];
    delta.new_terms[t].assign(view.new_terms[t].begin(),
                              view.new_terms[t].end());
  }
  delta.removed = view.removed;
  for (const Bundle* bundle : view.bundles) {
    delta.bundles.push_back(CloneBundle(*bundle, nullptr));
  }
  return delta;
}

std::string EncodedState(const EngineStateView& state) {
  std::string encoded;
  recovery::EncodeEngineState(state, &encoded);
  return encoded;
}

std::string EncodedDelta(const EngineDeltaView& delta) {
  std::string encoded;
  recovery::EncodeEngineDelta(delta, &encoded);
  return encoded;
}

TEST(EngineStateTest, ExportImportReproducesEngine) {
  SimulatedClock clock;
  ProvenanceEngine source(DeterministicOptions(), &clock, nullptr);
  IngestAll(&source, &clock, GeneratedStream(7, 300));

  EngineState state = Recovered(source);
  SimulatedClock clock2;
  clock2.Set(clock.Now());
  ProvenanceEngine restored(DeterministicOptions(), &clock2, nullptr);
  ASSERT_TRUE(restored.ImportState(state).ok());

  ExpectEnginesEqual(source, restored);
}

TEST(EngineStateTest, ImportedEngineIngestsIdenticallyToSource) {
  // The recovery contract: checkpoint mid-stream, restore, feed both
  // engines the same tail — every placement decision must match.
  auto messages = GeneratedStream(11, 400);
  SimulatedClock clock;
  ProvenanceEngine source(DeterministicOptions(), &clock, nullptr);
  for (size_t i = 0; i < 250; ++i) {
    clock.Advance(messages[i].date);
    ASSERT_TRUE(source.Ingest(messages[i]).ok());
  }

  SimulatedClock clock2;
  clock2.Set(clock.Now());
  ProvenanceEngine restored(DeterministicOptions(), &clock2, nullptr);
  ASSERT_TRUE(restored.ImportState(Recovered(source)).ok());

  for (size_t i = 250; i < messages.size(); ++i) {
    clock.Advance(messages[i].date);
    clock2.Advance(messages[i].date);
    auto ra = source.Ingest(messages[i]);
    auto rb = restored.Ingest(messages[i]);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra->bundle, rb->bundle) << "message " << messages[i].id;
    EXPECT_EQ(ra->created_bundle, rb->created_bundle);
    EXPECT_EQ(ra->parent, rb->parent);
    EXPECT_EQ(ra->connection, rb->connection);
  }
  ExpectEnginesEqual(source, restored);
}

TEST(EngineStateTest, ImportRequiresFreshEngine) {
  SimulatedClock clock;
  ProvenanceEngine source(DeterministicOptions(), &clock, nullptr);
  IngestAll(&source, &clock, GeneratedStream(3, 50));
  EngineState state = Recovered(source);

  ProvenanceEngine dirty(DeterministicOptions(), &clock, nullptr);
  ASSERT_TRUE(
      dirty.Ingest(MakeMessage(9999, kTestEpoch, "zed", {"tag"})).ok());
  EXPECT_FALSE(dirty.ImportState(state).ok());
}

TEST(EngineStateTest, BinaryRoundTrip) {
  SimulatedClock clock;
  ProvenanceEngine source(DeterministicOptions(), &clock, nullptr);
  IngestAll(&source, &clock, GeneratedStream(5, 200));

  std::string encoded;
  recovery::EncodeEngineState(source.ExportState(), &encoded);
  std::string_view input(encoded);
  EngineState decoded;
  ASSERT_TRUE(recovery::DecodeEngineState(&input, &decoded).ok());
  EXPECT_TRUE(input.empty());

  SimulatedClock clock2;
  clock2.Set(clock.Now());
  ProvenanceEngine restored(DeterministicOptions(), &clock2, nullptr);
  ASSERT_TRUE(restored.ImportState(decoded).ok());
  ExpectEnginesEqual(source, restored);
}

TEST(EngineStateTest, CaptureEncodesLikeCloneReference) {
  // A small pool keeps refinement evicting, so the deltas carry
  // removals as well as upserts.
  EngineOptions options = DeterministicOptions();
  options.pool.max_pool_size = 24;
  auto messages = GeneratedStream(17, 1200);
  SimulatedClock clock;
  ProvenanceEngine engine(options, &clock, nullptr);
  IngestAll(&engine, &clock,
            std::vector<Message>(messages.begin(), messages.begin() + 300));

  const std::string base = EncodedState(engine.ExportState());
  EXPECT_EQ(base, EncodedState(CloneReference(engine)));
  engine.ResetDeltaCursor();
  EngineState chain = Recovered(engine);

  size_t removed = 0;
  for (size_t step = 1; step <= 3; ++step) {
    IngestAll(&engine, &clock,
              std::vector<Message>(messages.begin() + 300 * step,
                                   messages.begin() + 300 * (step + 1)));
    EngineDeltaView delta = engine.ExportDelta();
    removed += delta.removed.size();
    const std::string encoded = EncodedDelta(delta);
    EXPECT_EQ(encoded, EncodedDelta(CloneReference(delta)))
        << "delta " << step;
    // The chain resolves to what a clone of the whole engine encodes.
    std::string_view input(encoded);
    EngineDelta decoded;
    ASSERT_TRUE(recovery::DecodeEngineDelta(&input, &decoded).ok());
    ASSERT_TRUE(ApplyEngineDelta(&chain, std::move(decoded)).ok());
    EXPECT_EQ(EncodedState(chain), EncodedState(CloneReference(engine)))
        << "chain after delta " << step;
  }
  EXPECT_GT(removed, 0u);
}

TEST(EngineStateTest, CaptureAllocationsDoNotGrowWithMessages) {
  // Ten or a thousand members of one topic: the capture borrows the
  // bundles instead of replaying their members, so it allocates the
  // same few vectors for both.
  EngineOptions options = DeterministicOptions();
  options.pool.max_bundle_size = 0;
  auto capture_allocations = [&options](int members) {
    SimulatedClock clock;
    ProvenanceEngine engine(options, &clock, nullptr);
    for (int i = 0; i <= members; ++i) {
      if (i == members) engine.ResetDeltaCursor();
      const Message msg =
          MakeMessage(i + 1, kTestEpoch + i, "alice", {"redsox"});
      clock.Advance(msg.date);
      EXPECT_TRUE(engine.Ingest(msg).ok());
    }
    size_t captured = 0;
    const uint64_t before = testing_util::AllocationCount();
    {
      EngineStateView state = engine.ExportState();
      EngineDeltaView delta = engine.ExportDelta();
      captured = state.bundles.size() + delta.bundles.size();
    }
    const uint64_t allocations = testing_util::AllocationCount() - before;
    EXPECT_GT(captured, 1u);
    return allocations;
  };
  const uint64_t small = capture_allocations(10);
  const uint64_t large = capture_allocations(1000);
  EXPECT_EQ(small, large);
  EXPECT_LE(large, 8u);
}

recovery::ServiceSnapshot MakeSnapshot() {
  recovery::ServiceSnapshot snapshot;
  snapshot.num_shards = 2;
  snapshot.watermark = kTestEpoch + 500;
  snapshot.accepted = 42;
  for (uint32_t i = 0; i < 2; ++i) {
    SimulatedClock clock;
    ProvenanceEngine engine(DeterministicOptions(), &clock, nullptr);
    for (const Message& msg : GeneratedStream(100 + i, 60)) {
      clock.Advance(msg.date);
      EXPECT_TRUE(engine.Ingest(msg).ok());
    }
    recovery::ShardSnapshot shard;
    shard.clock = clock.Now();
    shard.state = Recovered(engine);
    snapshot.shards.push_back(std::move(shard));
  }
  return snapshot;
}

TEST(ServiceSnapshotTest, RoundTrip) {
  recovery::ServiceSnapshot snapshot = MakeSnapshot();
  const uint64_t msgs0 = snapshot.shards[0].state.messages_ingested;

  std::string encoded;
  recovery::EncodeServiceSnapshot(snapshot, &encoded);
  auto decoded_or = recovery::DecodeServiceSnapshot(encoded);
  ASSERT_TRUE(decoded_or.ok()) << decoded_or.status().ToString();

  EXPECT_EQ(decoded_or->num_shards, 2u);
  EXPECT_EQ(decoded_or->watermark, kTestEpoch + 500);
  EXPECT_EQ(decoded_or->accepted, 42u);
  ASSERT_EQ(decoded_or->shards.size(), 2u);
  EXPECT_EQ(decoded_or->shards[0].clock, snapshot.shards[0].clock);
  EXPECT_EQ(decoded_or->shards[0].state.messages_ingested, msgs0);
  EXPECT_EQ(decoded_or->shards[0].state.bundles.size(),
            snapshot.shards[0].state.bundles.size());
}

TEST(ServiceSnapshotTest, RejectsCorruptionAnywhere) {
  std::string encoded;
  recovery::EncodeServiceSnapshot(MakeSnapshot(), &encoded);
  ASSERT_TRUE(recovery::DecodeServiceSnapshot(encoded).ok());

  // Single flipped bit, every region: header, body, CRC trailer.
  for (size_t pos : {size_t{0}, size_t{8}, encoded.size() / 2,
                     encoded.size() - 2}) {
    std::string corrupt = encoded;
    corrupt[pos] ^= 0x40;
    EXPECT_FALSE(recovery::DecodeServiceSnapshot(corrupt).ok())
        << "flip at " << pos << " accepted";
  }
  // Truncation (torn write) and trailing garbage.
  EXPECT_FALSE(
      recovery::DecodeServiceSnapshot(
          std::string_view(encoded).substr(0, encoded.size() - 5))
          .ok());
  EXPECT_FALSE(recovery::DecodeServiceSnapshot(encoded + "x").ok());
  EXPECT_FALSE(recovery::DecodeServiceSnapshot("").ok());
  EXPECT_FALSE(recovery::DecodeServiceSnapshot("abc").ok());
}

TEST(ServiceSnapshotTest, CaptureEncodesLikeCloneReference) {
  // Two live shards captured into one service image, base then delta,
  // against the same images built from clones.
  std::vector<std::unique_ptr<SimulatedClock>> clocks;
  std::vector<std::unique_ptr<ProvenanceEngine>> engines;
  for (uint64_t i = 0; i < 2; ++i) {
    clocks.push_back(std::make_unique<SimulatedClock>());
    engines.push_back(std::make_unique<ProvenanceEngine>(
        DeterministicOptions(), clocks.back().get(), nullptr));
    IngestAll(engines.back().get(), clocks.back().get(),
              GeneratedStream(200 + i, 150));
  }
  recovery::ServiceSnapshotView live;
  recovery::ServiceSnapshot cloned;
  live.num_shards = cloned.num_shards = 2;
  live.watermark = cloned.watermark = kTestEpoch + 900;
  live.accepted = cloned.accepted = 300;
  for (size_t i = 0; i < 2; ++i) {
    recovery::ShardSnapshotView& view = live.shards.emplace_back();
    view.clock = clocks[i]->Now();
    view.state = engines[i]->ExportState();
    recovery::ShardSnapshot shard;
    shard.clock = view.clock;
    shard.state = CloneReference(*engines[i]);
    cloned.shards.push_back(std::move(shard));
  }
  std::string live_bytes, cloned_bytes;
  recovery::EncodeServiceSnapshot(live, &live_bytes);
  recovery::EncodeServiceSnapshot(cloned, &cloned_bytes);
  EXPECT_EQ(live_bytes, cloned_bytes);

  recovery::ServiceDeltaView live_delta;
  recovery::ServiceDelta cloned_delta;
  live_delta.parent_seq = cloned_delta.parent_seq = 1;
  live_delta.num_shards = cloned_delta.num_shards = 2;
  for (size_t i = 0; i < 2; ++i) {
    engines[i]->ResetDeltaCursor();
    IngestAll(engines[i].get(), clocks[i].get(), GeneratedStream(300 + i, 80));
    recovery::ShardDeltaView& view = live_delta.shards.emplace_back();
    view.clock = clocks[i]->Now();
    view.delta = engines[i]->ExportDelta();
    recovery::ShardDelta shard;
    shard.clock = view.clock;
    shard.delta = CloneReference(view.delta);
    cloned_delta.shards.push_back(std::move(shard));
  }
  live_bytes.clear();
  cloned_bytes.clear();
  recovery::EncodeServiceDelta(live_delta, &live_bytes);
  recovery::EncodeServiceDelta(cloned_delta, &cloned_bytes);
  EXPECT_EQ(live_bytes, cloned_bytes);
}

}  // namespace
}  // namespace microprov
