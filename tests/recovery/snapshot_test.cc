#include "recovery/snapshot.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "core/engine.h"
#include "gen/generator.h"
#include "storage/bundle_codec.h"
#include "testing/alloc_counter.h"
#include "testing/clone_reference.h"
#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::AppendRecord;
using testing_util::CloneBundle;
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

/// What recovery imports: the engine's checkpoint encoding, decoded
/// into a state that owns the encoded bytes.
EngineState Recovered(const ProvenanceEngine& engine) {
  auto encoded = std::make_shared<std::string>();
  recovery::EncodeEngineState(engine.ExportState(), encoded.get());
  std::string_view input(*encoded);
  EngineState state;
  EXPECT_TRUE(recovery::DecodeEngineState(&input, &state).ok());
  EXPECT_TRUE(input.empty());
  state.buffers.push_back(std::move(encoded));
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

/// Reference for the checkpoint capture: an owning state holding the
/// record of a clone of every live bundle.
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
  std::vector<std::unique_ptr<Bundle>> clones;
  for (const auto& [id, bundle] : engine.pool().bundles()) {
    clones.push_back(CloneBundle(*bundle, nullptr));
  }
  std::sort(clones.begin(), clones.end(),
            [](const auto& a, const auto& b) { return a->id() < b->id(); });
  for (const std::unique_ptr<Bundle>& clone : clones) {
    AppendRecord(*clone, &state);
  }
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
    AppendRecord(*CloneBundle(*bundle, nullptr), &delta);
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
    auto encoded = std::make_shared<std::string>(EncodedDelta(delta));
    EXPECT_EQ(*encoded, EncodedDelta(CloneReference(delta)))
        << "delta " << step;
    // The chain resolves to what a clone of the whole engine encodes.
    std::string_view input(*encoded);
    EngineDelta decoded;
    ASSERT_TRUE(recovery::DecodeEngineDelta(&input, &decoded).ok());
    decoded.buffers.push_back(std::move(encoded));
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

TEST(EngineStateTest, ChainRecoveryDecodesEachSurvivorOnce) {
  // Base + 6 deltas that each rewrite every bundle resolve to the same
  // survivors as base + 1. Resolution works on the encoded records and
  // import decodes each survivor once, so the longer chain costs only
  // a fixed number of allocations per extra file, whatever the number
  // of bundles it rewrites.
  auto messages = GeneratedStream(19, 600);
  SimulatedClock clock;
  ProvenanceEngine source(DeterministicOptions(), &clock, nullptr);
  IngestAll(&source, &clock,
            std::vector<Message>(messages.begin(), messages.begin() + 400));
  const EngineStateView live = source.ExportState();
  const std::string base = EncodedState(live);
  EngineDeltaView rewrite_all;
  rewrite_all.messages_ingested = live.messages_ingested;
  rewrite_all.next_bundle_id = live.next_bundle_id;
  rewrite_all.pool_stats = live.pool_stats;
  for (int t = 0; t < kNumIndicantTypes; ++t) {
    rewrite_all.base_terms[t] = static_cast<uint32_t>(live.terms[t].size());
  }
  rewrite_all.bundles = live.bundles;
  const std::string delta = EncodedDelta(rewrite_all);
  const size_t survivors = live.bundles.size();
  ASSERT_GE(survivors, 50u);
  auto recover = [&](int deltas, ProvenanceEngine* engine) {
    const uint64_t before = testing_util::AllocationCount();
    std::string_view input(base);
    EngineState state;
    EXPECT_TRUE(recovery::DecodeEngineState(&input, &state).ok());
    for (int i = 0; i < deltas; ++i) {
      std::string_view delta_input(delta);
      EngineDelta decoded;
      EXPECT_TRUE(recovery::DecodeEngineDelta(&delta_input, &decoded).ok());
      EXPECT_TRUE(ApplyEngineDelta(&state, std::move(decoded)).ok());
    }
    EXPECT_EQ(state.bundles.size(), survivors);
    EXPECT_TRUE(engine->ImportState(state).ok());
    return testing_util::AllocationCount() - before;
  };
  SimulatedClock short_clock;
  short_clock.Set(clock.Now());
  ProvenanceEngine short_chain(DeterministicOptions(), &short_clock, nullptr);
  SimulatedClock long_clock;
  long_clock.Set(clock.Now());
  ProvenanceEngine long_chain(DeterministicOptions(), &long_clock, nullptr);
  const uint64_t one = recover(1, &short_chain);
  const uint64_t six = recover(6, &long_chain);
  // Per extra file: its record vector and the merged one. Decoding the
  // records a later file supersedes would cost at least one allocation
  // per record per file.
  constexpr uint64_t kPerFile = 4;
  EXPECT_LE(six, one + 5 * kPerFile) << "one delta: " << one;
  EXPECT_GE(six, one);

  ExpectEnginesEqual(source, short_chain);
  ExpectEnginesEqual(source, long_chain);
  for (size_t i = 400; i < messages.size(); ++i) {
    clock.Advance(messages[i].date);
    long_clock.Advance(messages[i].date);
    auto ra = source.Ingest(messages[i]);
    auto rb = long_chain.Ingest(messages[i]);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra->bundle, rb->bundle) << "message " << messages[i].id;
    EXPECT_EQ(ra->created_bundle, rb->created_bundle);
    EXPECT_EQ(ra->parent, rb->parent);
    EXPECT_EQ(ra->connection, rb->connection);
  }
  ExpectEnginesEqual(source, long_chain);
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
      recovery::DecodeServiceSnapshot(encoded.substr(0, encoded.size() - 5))
          .ok());
  EXPECT_FALSE(recovery::DecodeServiceSnapshot(encoded + "x").ok());
  EXPECT_FALSE(recovery::DecodeServiceSnapshot("").ok());
  EXPECT_FALSE(recovery::DecodeServiceSnapshot("abc").ok());
}

/// `image` (an encoded snapshot or delta) with the one-byte varint at
/// `pos` replaced by a count of 2^32-1 and the CRC trailer recomputed.
std::string WithHugeCount(const std::string& image, size_t pos) {
  std::string body = image.substr(0, image.size() - 4);
  EXPECT_LT(static_cast<unsigned char>(body[pos]), 0x80u) << pos;
  std::string count;
  PutVarint32(&count, UINT32_MAX);
  body.replace(pos, 1, count);
  PutFixed32(&body, crc32c::Mask(crc32c::Value(body)));
  return body;
}

TEST(ServiceSnapshotTest, HugeCountsBehindValidCrcAreCorruption) {
  // Every count the decoders read off the input (shards, terms, removed
  // ids, bundles) is checked against the bytes left before anything is
  // reserved for it, so a CRC-valid image with a count of 2^32-1 fails
  // with Corruption after a few small allocations.
  recovery::ServiceSnapshot snapshot;
  snapshot.num_shards = 1;
  snapshot.shards.emplace_back();
  std::string base;
  recovery::EncodeServiceSnapshot(snapshot, &base);
  recovery::ServiceDelta delta;
  delta.num_shards = 1;
  delta.shards.emplace_back();
  std::string chained;
  recovery::EncodeServiceDelta(delta, &chained);
  // Empty one-shard images. A snapshot body ends with four term counts
  // and the bundle count; a delta body with four (cursor, term count)
  // pairs, the removal count and the bundle count.
  const size_t base_body = base.size() - 4;
  const size_t delta_body = chained.size() - 4;
  const std::vector<size_t> base_counts = {
      5, base_body - 5, base_body - 4, base_body - 3, base_body - 2,
      base_body - 1};
  const std::vector<size_t> delta_counts = {
      6, delta_body - 9, delta_body - 7, delta_body - 5, delta_body - 3,
      delta_body - 2, delta_body - 1};
  for (size_t pos : base_counts) {
    const std::string hostile = WithHugeCount(base, pos);
    const uint64_t before = testing_util::AllocationCount();
    auto decoded_or = recovery::DecodeServiceSnapshot(hostile);
    const uint64_t allocations = testing_util::AllocationCount() - before;
    EXPECT_TRUE(decoded_or.status().IsCorruption()) << "snapshot @" << pos;
    EXPECT_LE(allocations, 8u) << "snapshot @" << pos;
  }
  for (size_t pos : delta_counts) {
    const std::string hostile = WithHugeCount(chained, pos);
    const uint64_t before = testing_util::AllocationCount();
    auto decoded_or = recovery::DecodeServiceDelta(hostile);
    const uint64_t allocations = testing_util::AllocationCount() - before;
    EXPECT_TRUE(decoded_or.status().IsCorruption()) << "delta @" << pos;
    EXPECT_LE(allocations, 8u) << "delta @" << pos;
  }
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
