#include "query/bundle_ranker.h"

#include <gtest/gtest.h>

#include "testing/relevance_reference.h"
#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::BundleIndicantScore;
using testing_util::BundleRelevance;
using testing_util::BundleTextScore;
using testing_util::kTestEpoch;
using testing_util::MakeMessage;

TEST(ParseQueryTest, SplitsTermKinds) {
  ParsedQuery q = ParseQuery("yankee redsox #mlb http://bit.ly/x");
  EXPECT_EQ(q.keywords, (std::vector<std::string>{"yanke", "redsox"}));
  EXPECT_EQ(q.hashtags, (std::vector<std::string>{"mlb"}));
  EXPECT_EQ(q.urls, (std::vector<std::string>{"http://bit.ly/x"}));
  EXPECT_FALSE(q.empty());
}

TEST(ParseQueryTest, StopwordsDropped) {
  ParsedQuery q = ParseQuery("the game of the day");
  EXPECT_EQ(q.keywords, (std::vector<std::string>{"game", "dai"}));
}

TEST(ParseQueryTest, EmptyQuery) {
  EXPECT_TRUE(ParseQuery("").empty());
  EXPECT_TRUE(ParseQuery("the of and").empty());
}

class BundleRankerTest : public ::testing::Test {
 protected:
  BundleRankerTest() : bundle_(1) {
    // A bundle about the yankee/redsox game.
    Message m1 = MakeMessage(1, kTestEpoch, "alice", {"redsox"},
                             {"bit.ly/game"}, {"yanke", "game"});
    Message m2 = MakeMessage(2, kTestEpoch + 60, "bob", {"redsox"}, {},
                             {"game", "win"});
    bundle_.AddMessage(m1, kInvalidMessageId, ConnectionType::kText, 0);
    bundle_.AddMessage(m2, 1, ConnectionType::kHashtag, 0.5);
    index_.AddMessage(1, m1, 6);
    index_.AddMessage(1, m2, 6);
  }

  Bundle bundle_;
  SummaryIndex index_;
};

TEST_F(BundleRankerTest, TextScorePositiveForMatchingTerms) {
  ParsedQuery q = ParseQuery("yankee game");
  double score = BundleTextScore(q, bundle_, index_, 10);
  EXPECT_GT(score, 0.0);
  EXPECT_LE(score, 1.01);
}

TEST_F(BundleRankerTest, TextScoreZeroForForeignTerms) {
  ParsedQuery q = ParseQuery("tsunami warning");
  EXPECT_EQ(BundleTextScore(q, bundle_, index_, 10), 0.0);
}

TEST_F(BundleRankerTest, MoreMatchedTermsScoreHigher) {
  double both = BundleTextScore(ParseQuery("yankee game"), bundle_,
                                index_, 10);
  double one = BundleTextScore(ParseQuery("yankee tsunami"), bundle_,
                               index_, 10);
  EXPECT_GT(both, one);
}

TEST_F(BundleRankerTest, IndicantScoreMatchesHashtags) {
  EXPECT_GT(BundleIndicantScore(ParseQuery("#redsox"), bundle_), 0.0);
  EXPECT_EQ(BundleIndicantScore(ParseQuery("#cubs"), bundle_), 0.0);
  // A bare word naming a hashtag counts.
  EXPECT_GT(BundleIndicantScore(ParseQuery("redsox"), bundle_), 0.0);
}

TEST_F(BundleRankerTest, FreshnessDecays) {
  const Timestamp updated = bundle_.last_update();
  double now_score = BundleFreshness(updated, kTestEpoch + 60, 86400);
  double later = BundleFreshness(updated, kTestEpoch + 10 * 86400, 86400);
  EXPECT_GT(now_score, later);
  EXPECT_LE(now_score, 1.0);
  EXPECT_GT(later, 0.0);
}

TEST_F(BundleRankerTest, QualityWeightLiftsSubstantialBundles) {
  // A fresh noise singleton vs. the older feedback-rich bundle_.
  Bundle noise(2);
  Message shallow = MakeMessage(9, kTestEpoch + 10 * kSecondsPerDay,
                                "grump", {"redsox"}, {}, {"sigh"});
  noise.AddMessage(shallow, kInvalidMessageId, ConnectionType::kText, 0);
  SummaryIndex index2;
  index2.AddMessage(2, shallow, 6);

  ParsedQuery q = ParseQuery("redsox");
  Timestamp now = kTestEpoch + 10 * kSecondsPerDay + 60;

  QueryWeights plain;  // faithful Eq. 7
  double noise_plain = BundleRelevance(q, noise, index2, 10, now, plain);
  double story_plain = BundleRelevance(q, bundle_, index_, 10, now, plain);
  // Freshness lets the noise singleton compete.
  EXPECT_GT(noise_plain, story_plain * 0.6);

  QueryWeights blended = plain;
  blended.quality_weight = 0.5;
  double noise_blended =
      BundleRelevance(q, noise, index2, 10, now, blended);
  double story_blended =
      BundleRelevance(q, bundle_, index_, 10, now, blended);
  // The quality blend moves the gap in the story bundle's favor.
  EXPECT_GT(story_blended - story_plain, noise_blended - noise_plain);
}

TEST_F(BundleRankerTest, RawWordsMatchUnstemmedHashtags) {
  Bundle tagged(3);
  Message msg = MakeMessage(1, kTestEpoch, "fan", {"yankees"});
  tagged.AddMessage(msg, kInvalidMessageId, ConnectionType::kText, 0);
  // "yankees" stems to "yanke", which is not the hashtag string; the raw
  // word must still hit.
  ParsedQuery q = ParseQuery("yankees");
  EXPECT_EQ(q.keywords, (std::vector<std::string>{"yanke"}));
  EXPECT_GT(BundleIndicantScore(q, tagged), 0.0);
}

TEST_F(BundleRankerTest, RelevanceCombinesComponents) {
  QueryWeights weights;
  ParsedQuery q = ParseQuery("redsox game");
  double relevant =
      BundleRelevance(q, bundle_, index_, 10, kTestEpoch + 60, weights);
  ParsedQuery foreign = ParseQuery("tsunami");
  double irrelevant = BundleRelevance(foreign, bundle_, index_, 10,
                                      kTestEpoch + 60, weights);
  EXPECT_GT(relevant, irrelevant);
  // Even irrelevant bundles keep their freshness component.
  EXPECT_GT(irrelevant, 0.0);
}

}  // namespace
}  // namespace microprov
