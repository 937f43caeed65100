// Acceptance checks for slab-allocated posting storage: steady-state
// posting appends perform zero heap allocations outside arena block
// grants, and an engine under an index-arena byte budget recycles chunks
// through eviction instead of growing without bound.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/slab_arena.h"
#include "core/engine.h"
#include "core/indicant_dictionary.h"
#include "core/summary_index.h"
#include "gen/generator.h"
#include "recovery/snapshot.h"
#include "testing/alloc_counter.h"
#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::kTestEpoch;
using testing_util::MakeMessage;

TEST(PostingArenaAllocTest, SteadyStateAppendsAllocateNothing) {
  IndicantDictionary dict;
  SlabArena arena;  // default 1 MiB blocks: one grant covers the test
  SummaryIndex index(&dict, &arena);

  // A fixed vocabulary, interned up front, so steady-state AddMessage
  // takes the stamped fast path: no string work, no dictionary growth,
  // no per-term table resizes.
  std::vector<Message> stamped;
  for (int i = 0; i < 20; ++i) {
    Message msg = MakeMessage(
        i, kTestEpoch + i, "user" + std::to_string(i % 5),
        {"tag" + std::to_string(i % 10)}, {},
        {"kw" + std::to_string(i % 8), "kw" + std::to_string(i % 3)});
    dict.InternMessage(&msg);
    stamped.push_back(std::move(msg));
  }
  // Warm-up: chains exist, term tables are at working size, and the
  // arena holds its block.
  for (int b = 1; b <= 100; ++b) {
    index.AddMessage(static_cast<BundleId>(b), stamped[b % stamped.size()],
                     6);
  }
  ASSERT_GT(arena.stats().allocated_bytes, 0u);

  // Steady state: appends into existing chains (fresh bundle ids) and
  // count bumps on existing postings (repeated bundle ids). Chunk
  // allocation bump-carves from the current block — no heap until the
  // arena needs another block, which this workload never does.
  const uint64_t heap_before = testing_util::AllocationCount();
  const uint64_t blocks_before = arena.stats().blocks_allocated;
  for (int b = 1; b <= 400; ++b) {
    index.AddMessage(static_cast<BundleId>(b), stamped[b % stamped.size()],
                     6);
  }
  EXPECT_EQ(arena.stats().blocks_allocated, blocks_before);
  EXPECT_EQ(testing_util::AllocationCount(), heap_before);
}

TEST(PostingArenaAllocTest, EngineArenaBudgetIsAHardCeiling) {
  // A deliberately tiny arena budget (4 x 8 KiB blocks) under a stream
  // large enough to fill it many times over. Arena pressure must force
  // pool refinement — evicted bundles return their posting chunks to
  // the free lists — so the arena recycles instead of allocating, and
  // total block memory never exceeds budget + one block (the transient
  // over-budget grant that raised the pressure signal).
  EngineOptions options =
      EngineOptions::ForConfig(IndexConfig::kPartialIndex,
                               /*pool_limit=*/100000);
  options.memory.arena_block_bytes = 8u << 10;
  options.memory.index_arena_bytes = 32u << 10;
  ASSERT_TRUE(options.memory.Validate().ok());

  GeneratorOptions gen;
  gen.seed = 7;
  gen.total_messages = 4000;
  gen.num_users = 300;
  SimulatedClock clock;
  ProvenanceEngine engine(options, &clock, nullptr);
  const size_t ceiling =
      options.memory.index_arena_bytes + options.memory.arena_block_bytes;
  for (const Message& msg : StreamGenerator(gen).Generate()) {
    clock.Advance(msg.date);
    ASSERT_TRUE(engine.Ingest(msg).ok());
    ASSERT_LE(engine.arena().stats().allocated_bytes, ceiling);
  }
  const SlabArena::Stats& stats = engine.arena().stats();
  // The stream's posting volume dwarfs the budget, so the ceiling only
  // holds if chunks actually cycled through the free lists.
  EXPECT_GT(stats.chunks_freed, 0u);
  EXPECT_GT(stats.chunks_recycled, 0u);
  EXPECT_GT(engine.pool().stats().bundles_evicted_ranked, 0u);
  // The breakdown reports the same bounded number.
  EXPECT_EQ(engine.MemoryUsage().arena_bytes, stats.allocated_bytes);
}

TEST(PostingArenaAllocTest, ArenaBackedStateSurvivesExportImport) {
  // Run an eviction-heavy engine (small pool, budgeted arena), then
  // rebuild a fresh engine from its exported state: the imported index
  // lands on the new engine's arena and answers identically.
  EngineOptions options =
      EngineOptions::ForConfig(IndexConfig::kPartialIndex,
                               /*pool_limit=*/80);
  options.memory.arena_block_bytes = 8u << 10;
  options.memory.index_arena_bytes = 64u << 10;

  GeneratorOptions gen;
  gen.seed = 11;
  gen.total_messages = 1500;
  gen.num_users = 150;
  SimulatedClock clock;
  ProvenanceEngine engine(options, &clock, nullptr);
  for (const Message& msg : StreamGenerator(gen).Generate()) {
    clock.Advance(msg.date);
    ASSERT_TRUE(engine.Ingest(msg).ok());
  }
  ASSERT_GT(engine.pool().stats().bundles_evicted_ranked +
                engine.pool().stats().bundles_deleted_tiny,
            0u);

  // Restore the way recovery does: from the encoded checkpoint image.
  std::string encoded;
  recovery::EncodeEngineState(engine.ExportState(), &encoded);
  std::string_view input(encoded);
  EngineState state;
  ASSERT_TRUE(recovery::DecodeEngineState(&input, &state).ok());
  SimulatedClock clock2;
  clock2.Advance(clock.Now());
  ProvenanceEngine restored(options, &clock2, nullptr);
  ASSERT_TRUE(restored.ImportState(state).ok());

  const SummaryIndex& a = engine.summary_index();
  const SummaryIndex& b = restored.summary_index();
  EXPECT_EQ(a.num_keys(), b.num_keys());
  EXPECT_EQ(a.num_postings(), b.num_postings());
  EXPECT_GT(restored.arena().stats().used_bytes, 0u);
  // Every live posting in the source resolves to the same bundle list
  // in the restored index (value-wise, across dictionaries).
  a.ForEachPosting([&](IndicantType type, TermId term, BundleId, uint32_t) {
    const std::string& value = a.dictionary().Resolve(type, term);
    EXPECT_EQ(a.Lookup(type, value), b.Lookup(type, value));
  });
}

}  // namespace
}  // namespace microprov
