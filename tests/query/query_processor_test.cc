#include "query/query_processor.h"

#include <gtest/gtest.h>

#include "testing/alloc_counter.h"
#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::kTestEpoch;

Message TextMessage(MessageId id, Timestamp date, const std::string& user,
                    const std::string& text) {
  Message msg;
  msg.id = id;
  msg.date = date;
  msg.user = user;
  msg.text = text;
  ExtractIndicants(&msg);
  return msg;
}

TEST(MessageSearchIndexTest, FindsByKeyword) {
  MessageSearchIndex index;
  index.Add(TextMessage(1, kTestEpoch, "a", "yankee game tonight"));
  index.Add(TextMessage(2, kTestEpoch, "b", "tsunami warning issued"));
  auto hits = index.Search("yankee", 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].message, 1);
  EXPECT_EQ(hits[0].user, "a");
  EXPECT_EQ(hits[0].text, "yankee game tonight");
}

TEST(MessageSearchIndexTest, FindsByHashtag) {
  MessageSearchIndex index;
  index.Add(TextMessage(1, kTestEpoch, "a", "so excited #redsox"));
  index.Add(TextMessage(2, kTestEpoch, "b", "nothing relevant"));
  auto hits = index.Search("#redsox", 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].message, 1);
}

TEST(MessageSearchIndexTest, StemmedQueryMatchesVariants) {
  MessageSearchIndex index;
  index.Add(TextMessage(1, kTestEpoch, "a", "the yankees are winning"));
  auto hits = index.Search("yankee wins", 10);
  ASSERT_EQ(hits.size(), 1u);
}

TEST(MessageSearchIndexTest, RanksMoreMatchesFirst) {
  MessageSearchIndex index;
  index.Add(TextMessage(1, kTestEpoch, "a", "yankee stadium"));
  index.Add(TextMessage(2, kTestEpoch, "b", "yankee redsox rivalry"));
  auto hits = index.Search("yankee redsox", 10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].message, 2);
}

TEST(MessageSearchIndexTest, EmptyQueryEmptyResult) {
  MessageSearchIndex index;
  index.Add(TextMessage(1, kTestEpoch, "a", "anything"));
  EXPECT_TRUE(index.Search("", 10).empty());
  EXPECT_TRUE(index.Search("the of", 10).empty());
}

class BundleQueryTest : public ::testing::Test {
 protected:
  BundleQueryTest()
      : clock_(kTestEpoch),
        engine_(EngineOptions::ForConfig(IndexConfig::kFullIndex),
                &clock_, nullptr) {}

  void Feed(MessageId id, Timestamp date, const std::string& user,
            const std::string& text) {
    Message msg = TextMessage(id, date, user, text);
    clock_.Advance(date);
    ASSERT_TRUE(engine_.Ingest(msg).ok());
  }

  SimulatedClock clock_;
  ProvenanceEngine engine_;
};

TEST_F(BundleQueryTest, ReturnsMatchingBundleWithSummary) {
  Feed(1, kTestEpoch, "alice", "yankee redsox game tonight #redsox");
  Feed(2, kTestEpoch + 60, "bob", "what a yankee redsox game #redsox");
  Feed(3, kTestEpoch + 120, "carol", "tsunami warning for samoa #tsunami");

  BundleQueryProcessor processor(&engine_);
  auto results = processor.Search({.text = "yankee redsox", .k = 5, .now = kTestEpoch + 200});
  ASSERT_GE(results.size(), 1u);
  EXPECT_EQ(results[0].size, 2u);
  EXPECT_FALSE(results[0].summary_words.empty());
  EXPECT_GT(results[0].score, 0.0);
  // The game bundle outranks any tsunami bundle that leaked in.
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i].score, results[0].score);
  }
}

TEST_F(BundleQueryTest, HashtagQueryFindsBundle) {
  Feed(1, kTestEpoch, "alice", "big wave coming #tsunami");
  Feed(2, kTestEpoch + 30, "bob", "stay safe #tsunami");
  BundleQueryProcessor processor(&engine_);
  auto results = processor.Search({.text = "#tsunami", .k = 5, .now = kTestEpoch + 100});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].size, 2u);
}

TEST_F(BundleQueryTest, NoMatchesEmptyResult) {
  Feed(1, kTestEpoch, "alice", "about baseball #mlb");
  BundleQueryProcessor processor(&engine_);
  EXPECT_TRUE(processor.Search({.text = "cricket", .k = 5, .now = kTestEpoch + 10}).empty());
  EXPECT_TRUE(processor.Search({.text = "", .k = 5, .now = kTestEpoch + 10}).empty());
}

TEST_F(BundleQueryTest, KRespected) {
  for (int i = 0; i < 10; ++i) {
    // Distinct bundles all containing "game".
    Feed(i, kTestEpoch + i * kSecondsPerDay,
         "user" + std::to_string(i),
         "game update #evt" + std::to_string(i));
  }
  BundleQueryProcessor processor(&engine_);
  auto results =
      processor.Search(
          {.text = "game", .k = 3, .now = kTestEpoch + 20 * kSecondsPerDay});
  EXPECT_EQ(results.size(), 3u);
}

TEST_F(BundleQueryTest, ArchivedBundlesSearchableViaStore) {
  testing_util::ScopedTempDir dir;
  BundleStore::Options store_options;
  store_options.dir = dir.path() + "/store";
  auto store_or = BundleStore::Open(store_options);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;

  // Live bundle about baseball; archived bundle about an old flood.
  Feed(1, kTestEpoch, "alice", "game tonight #baseball");
  Bundle old_bundle(9999);
  Message old_msg = TextMessage(50, kTestEpoch - 30 * kSecondsPerDay,
                                "bob", "river flood warning #flood");
  old_bundle.AddMessage(old_msg, kInvalidMessageId, ConnectionType::kText,
                        0);
  ASSERT_TRUE(store->Put(old_bundle).ok());

  BundleQueryProcessor processor(&engine_, QueryWeights{}, store.get());
  auto results = processor.Search({.text = "#flood", .k = 5, .now = kTestEpoch});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].bundle, 9999u);
  EXPECT_TRUE(results[0].archived);
  // Live results are not marked archived.
  auto live = processor.Search({.text = "#baseball", .k = 5, .now = kTestEpoch});
  ASSERT_EQ(live.size(), 1u);
  EXPECT_FALSE(live[0].archived);
}

TEST_F(BundleQueryTest, FiltersApplyToLiveResults) {
  // Two topically distinct bundles (different hashtags) that share the
  // query keyword "gameday".
  Feed(1, kTestEpoch, "a", "early gameday chatter #alpha");
  Feed(2, kTestEpoch + 20 * kSecondsPerDay, "b", "late gameday #beta");
  Feed(3, kTestEpoch + 20 * kSecondsPerDay + 30, "c",
       "more late gameday buzz #beta");
  BundleQueryProcessor processor(&engine_);
  const Timestamp now = kTestEpoch + 21 * kSecondsPerDay;

  // Unfiltered: both bundles.
  ASSERT_EQ(processor.Search({.text = "gameday", .k = 10, .now = now}).size(), 2u);

  // Date filter drops the early bundle.
  SearchFilters late_only;
  late_only.since = kTestEpoch + 10 * kSecondsPerDay;
  auto late = processor.Search(
      {.text = "gameday", .k = 10, .now = now, .filters = late_only});
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late[0].size, 2u);

  // Until filter drops the late bundle.
  SearchFilters early_only;
  early_only.until = kTestEpoch + kSecondsPerDay;
  auto early = processor.Search(
      {.text = "gameday", .k = 10, .now = now, .filters = early_only});
  ASSERT_EQ(early.size(), 1u);
  EXPECT_EQ(early[0].size, 1u);

  // Size filter drops singletons.
  SearchFilters no_singletons;
  no_singletons.min_bundle_size = 2;
  auto sized = processor.Search(
      {.text = "gameday", .k = 10, .now = now, .filters = no_singletons});
  ASSERT_EQ(sized.size(), 1u);
  EXPECT_EQ(sized[0].size, 2u);
}

TEST_F(BundleQueryTest, ArchiveCanBeExcludedByFilter) {
  testing_util::ScopedTempDir dir;
  BundleStore::Options store_options;
  store_options.dir = dir.path() + "/store";
  auto store_or = BundleStore::Open(store_options);
  ASSERT_TRUE(store_or.ok());
  Bundle old_bundle(777);
  Message old_msg =
      TextMessage(50, kTestEpoch, "bob", "archived topic #vault");
  old_bundle.AddMessage(old_msg, kInvalidMessageId, ConnectionType::kText,
                        0);
  ASSERT_TRUE((*store_or)->Put(old_bundle).ok());

  BundleQueryProcessor processor(&engine_, QueryWeights{},
                                 store_or->get());
  EXPECT_EQ(processor.Search({.text = "#vault", .k = 5, .now = kTestEpoch}).size(), 1u);
  SearchFilters live_only;
  live_only.include_archived = false;
  EXPECT_TRUE(
      processor.Search(
          {.text = "#vault", .k = 5, .now = kTestEpoch, .filters = live_only}).empty());
}

TEST_F(BundleQueryTest, ArchivedLookupMatchesTermsByType) {
  // Bundle 801 says "flood" only as a keyword, 802 as a hashtag. A
  // `#flood` query reaches 802 alone; the plain word reaches both, as
  // the ranker matches a word against keywords and hashtags.
  testing_util::ScopedTempDir dir;
  BundleStore::Options store_options;
  store_options.dir = dir.path() + "/store";
  auto store_or = BundleStore::Open(store_options);
  ASSERT_TRUE(store_or.ok());
  Bundle worded(801);
  worded.AddMessage(TextMessage(60, kTestEpoch, "bob", "river flood warning"),
                    kInvalidMessageId, ConnectionType::kText, 0);
  Bundle tagged(802);
  tagged.AddMessage(TextMessage(61, kTestEpoch, "carol", "stay dry #flood"),
                    kInvalidMessageId, ConnectionType::kText, 0);
  ASSERT_TRUE((*store_or)->Put(worded).ok());
  ASSERT_TRUE((*store_or)->Put(tagged).ok());

  BundleQueryProcessor processor(&engine_, QueryWeights{},
                                 store_or->get());
  auto by_tag = processor.Search({.text = "#flood", .k = 5, .now = kTestEpoch});
  ASSERT_EQ(by_tag.size(), 1u);
  EXPECT_EQ(by_tag[0].bundle, 802u);
  auto by_word = processor.Search({.text = "flood", .k = 5, .now = kTestEpoch});
  EXPECT_EQ(by_word.size(), 2u);
}

TEST_F(BundleQueryTest, FreshBundleRankedAboveStaleOnTie) {
  Feed(1, kTestEpoch, "a", "game one #early");
  Feed(2, kTestEpoch + 20 * kSecondsPerDay, "b", "game two #late");
  BundleQueryProcessor processor(&engine_);
  auto results =
      processor.Search(
      {.text = "game", .k = 5, .now = kTestEpoch + 20 * kSecondsPerDay + 60});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GT(results[0].last_post, results[1].last_post);
}

/// Heap allocations of one archived-only query on a warmed thread, run
/// against 20 archived bundles of `members` messages each. Every bundle
/// has the same ten summary words, so materialization copies the same
/// strings whatever the bundle size.
uint64_t ArchivedQueryAllocations(size_t members,
                                  const QueryWeights& weights) {
  testing_util::ScopedTempDir dir;
  BundleStore::Options store_options;
  store_options.dir = dir.path() + "/store";
  auto store_or = BundleStore::Open(store_options);
  EXPECT_TRUE(store_or.ok());
  if (!store_or.ok()) return 0;
  BundleStore* store = store_or->get();
  const char* const words[] = {"quak", "harbor", "ferri", "bridg",
                               "parad", "relief", "wave",  "shore",
                               "tide",  "storm"};
  for (BundleId id = 1; id <= 20; ++id) {
    Bundle bundle(id);
    for (size_t m = 0; m < members; ++m) {
      const MessageId mid = static_cast<MessageId>(id * 10000 + m);
      Message msg = testing_util::MakeMessage(
          mid, kTestEpoch - static_cast<Timestamp>(id * 60 + m), "old",
          {"quake"}, {}, {});
      for (size_t w = 0; w < 6; ++w) {
        msg.keywords.push_back(words[(m + w) % std::size(words)]);
      }
      bundle.AddMessage(std::move(msg),
                        m == 0 ? kInvalidMessageId : mid - 1,
                        ConnectionType::kText, 0.5f);
    }
    EXPECT_TRUE(store->Put(bundle).ok());
  }
  SimulatedClock clock(kTestEpoch);
  ProvenanceEngine engine(EngineOptions::ForConfig(IndexConfig::kFullIndex),
                          &clock, nullptr);
  BundleQueryProcessor processor(&engine, weights, store);
  const BundleQuery query{.text = "quake harbor", .k = 5, .now = kTestEpoch};
  EXPECT_EQ(processor.Search(query).size(), 5u);  // warms the scratch
  const uint64_t before = testing_util::AllocationCount();
  const std::vector<BundleSearchResult> results = processor.Search(query);
  const uint64_t allocations = testing_util::AllocationCount() - before;
  EXPECT_EQ(results.size(), 5u);
  for (const BundleSearchResult& hit : results) {
    EXPECT_TRUE(hit.archived);
    EXPECT_EQ(hit.size, members);
    EXPECT_EQ(hit.summary_words.size(), 10u);
  }
  return allocations;
}

TEST(ArchivedQueryAllocationTest, DefaultWeightsDecodeNoCandidate) {
  // Decoding allocates per message; scoring from record bytes and
  // materializing from summaries do not.
  EXPECT_EQ(ArchivedQueryAllocations(5, QueryWeights{}),
            ArchivedQueryAllocations(500, QueryWeights{}));
}

TEST(ArchivedQueryAllocationTest, QualityWeightDecodesEachCandidate) {
  // BundleQuality needs the whole bundle: with quality_weight > 0 each
  // archived candidate is decoded, and allocations grow with its size.
  QueryWeights weights;
  weights.quality_weight = 0.2;
  EXPECT_GT(ArchivedQueryAllocations(500, weights),
            ArchivedQueryAllocations(5, weights) + 20 * 495);
}

}  // namespace
}  // namespace microprov
