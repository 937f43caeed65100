// Integration tests for the disk path: engine -> bundle store -> recovery,
// and the text-search segment flush.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "gen/generator.h"
#include "query/query_processor.h"
#include "storage/bundle_store.h"
#include "stream/replay.h"
#include "testing/summary_reference.h"
#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::ScopedTempDir;

std::vector<Message> Dataset(uint64_t n) {
  GeneratorOptions options;
  options.seed = 41;
  options.total_messages = n;
  options.num_users = 400;
  options.text_options.vocabulary_size = 1500;
  StreamGenerator generator(options);
  return generator.Generate();
}

TEST(PersistenceTest, DrainedEngineStateSurvivesReopen) {
  ScopedTempDir dir;
  auto messages = Dataset(5000);
  uint64_t live_messages = 0;
  uint64_t stored_before = 0;
  {
    BundleStore::Options store_options;
    store_options.dir = dir.path() + "/store";
    auto store_or = BundleStore::Open(store_options);
    ASSERT_TRUE(store_or.ok());
    SimulatedClock clock;
    ProvenanceEngine engine(
        EngineOptions::ForConfig(IndexConfig::kPartialIndex, 300),
        &clock, store_or->get());
    StreamReplayer replayer(&clock);
    ASSERT_TRUE(replayer
                    .Replay(messages,
                            [&](const Message& msg) {
                              return engine.Ingest(msg).status();
                            })
                    .ok());
    live_messages = engine.pool().TotalMessages();
    ASSERT_TRUE(engine.Drain().ok());
    EXPECT_EQ(engine.pool().TotalMessages(), 0u);
    stored_before = (*store_or)->bundle_count();
    ASSERT_GT(stored_before, 0u);
  }

  // Reopen: the archive holds the complete per-bundle provenance record.
  BundleStore::Options store_options;
  store_options.dir = dir.path() + "/store";
  auto reopened_or = BundleStore::Open(store_options);
  ASSERT_TRUE(reopened_or.ok());
  auto& store = *reopened_or;
  EXPECT_EQ(store->bundle_count(), stored_before);

  uint64_t total_messages = 0;
  uint64_t total_edges = 0;
  ASSERT_TRUE(store
                  ->Scan([&](const Bundle& bundle) {
                    total_messages += bundle.size();
                    total_edges += bundle.Edges().size();
                    EXPECT_GT(bundle.size(), 0u);
                    return Status::OK();
                  })
                  .ok());
  // Everything that was in memory at the end got archived; evicted tiny
  // bundles were legitimately dropped along the way.
  EXPECT_GE(total_messages, live_messages);
  EXPECT_LE(total_messages, messages.size());
  EXPECT_GT(total_edges, 0u);
}

TEST(PersistenceTest, RestartedEngineResumesBundleIds) {
  ScopedTempDir dir;
  BundleStore::Options store_options;
  store_options.dir = dir.path() + "/store";
  BundleId max_before = 0;
  {
    auto store_or = BundleStore::Open(store_options);
    ASSERT_TRUE(store_or.ok());
    SimulatedClock clock;
    ProvenanceEngine engine(
        EngineOptions::ForConfig(IndexConfig::kPartialIndex, 100),
        &clock, store_or->get());
    auto messages = Dataset(2000);
    StreamReplayer replayer(&clock);
    ASSERT_TRUE(replayer
                    .Replay(messages,
                            [&](const Message& msg) {
                              return engine.Ingest(msg).status();
                            })
                    .ok());
    ASSERT_TRUE(engine.Drain().ok());
    max_before = (*store_or)->max_bundle_id();
    ASSERT_GT(max_before, 0u);
  }

  // Restart: the new engine's first bundle id must not collide with any
  // archived bundle.
  auto reopened_or = BundleStore::Open(store_options);
  ASSERT_TRUE(reopened_or.ok());
  SimulatedClock clock;
  ProvenanceEngine engine(
      EngineOptions::ForConfig(IndexConfig::kPartialIndex, 100), &clock,
      reopened_or->get());
  Message fresh;
  fresh.id = 1000000;
  fresh.date = testing_util::kTestEpoch;
  fresh.user = "newuser";
  fresh.text = "a brand new topic #fresh";
  ExtractIndicants(&fresh);
  clock.Advance(fresh.date);
  StatusOr<IngestResult> result = engine.Ingest(fresh);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->bundle, max_before);
}

TEST(PersistenceTest, ArchivedBundleRoundTripsExactly) {
  ScopedTempDir dir;
  BundleStore::Options store_options;
  store_options.dir = dir.path() + "/store";
  auto store_or = BundleStore::Open(store_options);
  ASSERT_TRUE(store_or.ok());

  SimulatedClock clock;
  ProvenanceEngine engine(
      EngineOptions::ForConfig(IndexConfig::kFullIndex), &clock,
      store_or->get());
  auto messages = Dataset(2000);
  StreamReplayer replayer(&clock);
  IngestResult last;
  ASSERT_TRUE(replayer
                  .Replay(messages,
                          [&](const Message& msg) {
                            StatusOr<IngestResult> r = engine.Ingest(msg);
                            if (r.ok()) last = *r;
                            return r.status();
                          })
                  .ok());
  // Pick a live bundle, archive it, read it back, compare.
  const Bundle* live = engine.pool().Get(last.bundle);
  ASSERT_NE(live, nullptr);
  ASSERT_TRUE((*store_or)->Put(*live).ok());
  auto loaded_or = (*store_or)->Get(live->id());
  ASSERT_TRUE(loaded_or.ok());
  const Bundle& loaded = **loaded_or;
  EXPECT_EQ(loaded.size(), live->size());
  EXPECT_EQ(loaded.start_time(), live->start_time());
  EXPECT_EQ(loaded.end_time(), live->end_time());
  EXPECT_EQ(testing_util::ResolvedCounts(loaded, IndicantType::kHashtag),
            testing_util::ResolvedCounts(*live, IndicantType::kHashtag));
  for (size_t i = 0; i < live->size(); ++i) {
    EXPECT_EQ(loaded.messages()[i].msg, live->messages()[i].msg);
    EXPECT_EQ(loaded.messages()[i].parent, live->messages()[i].parent);
  }
}

}  // namespace
}  // namespace microprov
