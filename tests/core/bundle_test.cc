#include "core/bundle.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "testing/summary_reference.h"
#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::kTestEpoch;
using testing_util::MakeMessage;

TEST(BundleTest, EmptyBundle) {
  Bundle bundle(1);
  EXPECT_EQ(bundle.id(), 1u);
  EXPECT_EQ(bundle.size(), 0u);
  EXPECT_TRUE(bundle.empty());
  EXPECT_FALSE(bundle.closed());
}

TEST(BundleTest, AddMessageTracksTimeRange) {
  Bundle bundle(1);
  bundle.AddMessage(MakeMessage(1, kTestEpoch + 100, "a"),
                    kInvalidMessageId, ConnectionType::kText, 0);
  bundle.AddMessage(MakeMessage(2, kTestEpoch + 50, "b"), 1,
                    ConnectionType::kText, 0);
  bundle.AddMessage(MakeMessage(3, kTestEpoch + 500, "c"), 1,
                    ConnectionType::kText, 0);
  EXPECT_EQ(bundle.start_time(), kTestEpoch + 50);
  EXPECT_EQ(bundle.end_time(), kTestEpoch + 500);
  EXPECT_EQ(bundle.last_update(), kTestEpoch + 500);
  EXPECT_EQ(bundle.size(), 3u);
}

TEST(BundleTest, SummaryCountsAccumulate) {
  Bundle bundle(1);
  bundle.AddMessage(
      MakeMessage(1, kTestEpoch, "alice", {"redsox", "mlb"},
                  {"bit.ly/1"}, {"game"}),
      kInvalidMessageId, ConnectionType::kText, 0);
  bundle.AddMessage(
      MakeMessage(2, kTestEpoch, "bob", {"redsox"}, {}, {"game", "win"}),
      1, ConnectionType::kHashtag, 0);
  EXPECT_EQ(bundle.CountOf(IndicantType::kHashtag, "redsox"), 2u);
  EXPECT_EQ(bundle.CountOf(IndicantType::kHashtag, "mlb"), 1u);
  EXPECT_EQ(bundle.CountOf(IndicantType::kUrl, "bit.ly/1"), 1u);
  EXPECT_EQ(bundle.CountOf(IndicantType::kKeyword, "game"), 2u);
  EXPECT_EQ(bundle.CountOf(IndicantType::kUser, "alice"), 1u);
  EXPECT_TRUE(bundle.HasUser("bob"));
  EXPECT_FALSE(bundle.HasUser("carol"));
}

TEST(BundleTest, KeywordSummaryCapPerMessage) {
  Bundle bundle(1);
  std::vector<std::string> many_keywords;
  for (int i = 0; i < 20; ++i) {
    many_keywords.push_back("kw" + std::to_string(i));
  }
  bundle.AddMessage(MakeMessage(1, kTestEpoch, "u", {}, {}, many_keywords),
                    kInvalidMessageId, ConnectionType::kText, 0);
  EXPECT_EQ(bundle.id_counts(IndicantType::kKeyword).size(),
            Bundle::kSummaryKeywordsPerMessage);
}

TEST(BundleTest, FindLocatesMessages) {
  Bundle bundle(1);
  bundle.AddMessage(MakeMessage(10, kTestEpoch, "a"), kInvalidMessageId,
                    ConnectionType::kText, 0);
  bundle.AddMessage(MakeMessage(20, kTestEpoch, "b"), 10,
                    ConnectionType::kRt, 1.0f);
  const BundleMessage* found = bundle.Find(20);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->msg.user, "b");
  EXPECT_EQ(found->parent, 10);
  EXPECT_EQ(bundle.Find(999), nullptr);
}

TEST(BundleTest, EdgesExcludeRoot) {
  Bundle bundle(1);
  bundle.AddMessage(MakeMessage(1, kTestEpoch, "a"), kInvalidMessageId,
                    ConnectionType::kText, 0);
  bundle.AddMessage(MakeMessage(2, kTestEpoch, "b"), 1,
                    ConnectionType::kUrl, 0.7f);
  bundle.AddMessage(MakeMessage(3, kTestEpoch, "c"), 1,
                    ConnectionType::kRt, 1.0f);
  auto edges = bundle.Edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].parent, 1);
  EXPECT_EQ(edges[0].child, 2);
  EXPECT_EQ(edges[0].type, ConnectionType::kUrl);
  EXPECT_EQ(edges[1].child, 3);
}

TEST(BundleTest, TopKeywordsOrderedByCount) {
  Bundle bundle(1);
  bundle.AddMessage(
      MakeMessage(1, kTestEpoch, "a", {}, {}, {"win", "game"}),
      kInvalidMessageId, ConnectionType::kText, 0);
  bundle.AddMessage(MakeMessage(2, kTestEpoch, "b", {}, {}, {"game"}), 1,
                    ConnectionType::kText, 0);
  bundle.AddMessage(MakeMessage(3, kTestEpoch, "c", {}, {}, {"game"}), 1,
                    ConnectionType::kText, 0);
  auto top = bundle.TopKeywords(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "game");
  EXPECT_EQ(top[0].second, 3u);
  EXPECT_EQ(top[1].first, "win");
}

TEST(BundleTest, TopKeywordsTieBreaksLexicographically) {
  Bundle bundle(1);
  bundle.AddMessage(
      MakeMessage(1, kTestEpoch, "a", {}, {}, {"zebra", "apple"}),
      kInvalidMessageId, ConnectionType::kText, 0);
  auto top = bundle.TopKeywords(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "apple");
}

TEST(BundleTest, TopKeywordsMatchesFullSortReference) {
  // Random bundles with few distinct keywords (heavy ties at every cut)
  // and with many, checked for every k from 0 past the distinct count.
  Random rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    Bundle bundle(1);
    const size_t vocabulary = 1 + rng.Uniform(trial % 2 == 0 ? 8 : 120);
    const size_t messages = rng.Uniform(40);
    for (size_t i = 0; i < messages; ++i) {
      std::vector<std::string> words;
      for (size_t w = rng.Uniform(9); w > 0; --w) {
        words.push_back("k" + std::to_string(rng.Uniform(vocabulary)));
      }
      bundle.AddMessage(MakeMessage(static_cast<MessageId>(i), kTestEpoch,
                                    "u", {}, {}, words),
                        i == 0 ? kInvalidMessageId : 0, ConnectionType::kText,
                        0);
    }
    const size_t distinct =
        bundle.id_counts(IndicantType::kKeyword).size();
    for (size_t k = 0; k <= distinct + 2; ++k) {
      EXPECT_EQ(bundle.TopKeywords(k),
                testing_util::ReferenceTopKeywords(bundle, k))
          << "trial " << trial << " k " << k;
    }
  }
}

TEST(BundleTest, TopKeywordsOfSixThousandDistinctKeywords) {
  // The size of the largest live bundle on a firehose stream: thousands
  // of keywords, most seen once, so the 10th place is a long tie.
  Random rng(61);
  Bundle bundle(1);
  for (MessageId i = 0; i < 3000; ++i) {
    std::vector<std::string> words;
    for (int w = 0; w < 6; ++w) {
      words.push_back("w" + std::to_string(rng.Uniform(6000)));
    }
    bundle.AddMessage(MakeMessage(i, kTestEpoch, "u", {}, {}, words),
                      i == 0 ? kInvalidMessageId : 0, ConnectionType::kText,
                      0);
  }
  ASSERT_GT(bundle.id_counts(IndicantType::kKeyword).size(), 5000u);
  for (size_t k : {0, 1, 10, 100, 7000}) {
    EXPECT_EQ(bundle.TopKeywords(k),
              testing_util::ReferenceTopKeywords(bundle, k))
        << k;
  }
}

TEST(BundleTest, CloseMarksClosed) {
  Bundle bundle(1);
  bundle.Close();
  EXPECT_TRUE(bundle.closed());
}

TEST(BundleTest, MemoryUsageGrowsWithMessages) {
  Bundle bundle(1);
  size_t base = bundle.ApproxMemoryUsage();
  for (int i = 0; i < 100; ++i) {
    bundle.AddMessage(
        MakeMessage(i, kTestEpoch, "user_with_a_longish_name",
                    {"hashtag_value"}, {}, {"keyword_value"}),
        kInvalidMessageId, ConnectionType::kText, 0);
  }
  EXPECT_GT(bundle.ApproxMemoryUsage(), base + 100 * sizeof(BundleMessage));
}

}  // namespace
}  // namespace microprov
