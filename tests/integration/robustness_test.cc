// Robustness sweeps: every decoder must reject arbitrary garbage,
// truncations, and single-byte corruptions with a clean Status — never
// crash, hang, or read out of bounds. Deterministic pseudo-fuzzing so
// failures reproduce.

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/bundle_codec.h"
#include "stream/message_codec.h"
#include "text/tweet_parser.h"
#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::kTestEpoch;
using testing_util::MakeMessage;

std::string RandomBytes(Random* rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) {
    c = static_cast<char>(rng->Uniform(256));
  }
  return out;
}

std::string ValidBundleRecord() {
  Bundle bundle(3);
  bundle.AddMessage(
      MakeMessage(1, kTestEpoch, "alice", {"tag"}, {"url"}, {"kw"}),
      kInvalidMessageId, ConnectionType::kText, 0);
  bundle.AddMessage(MakeMessage(2, kTestEpoch + 5, "bob", {"tag"}), 1,
                    ConnectionType::kHashtag, 0.5f);
  std::string encoded;
  EncodeBundle(bundle, &encoded);
  return encoded;
}

TEST(RobustnessTest, BundleDecoderSurvivesRandomGarbage) {
  Random rng(101);
  for (int i = 0; i < 2000; ++i) {
    std::string garbage = RandomBytes(&rng, rng.Uniform(200));
    auto result = DecodeBundle(garbage);
    // Either a clean error, or (astronomically unlikely) a valid tiny
    // bundle; never a crash.
    if (result.ok()) {
      EXPECT_LE((*result)->size(), garbage.size());
    }
  }
}

TEST(RobustnessTest, BundleDecoderSurvivesEveryTruncation) {
  std::string valid = ValidBundleRecord();
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    auto result = DecodeBundle(std::string_view(valid.data(), cut));
    EXPECT_FALSE(result.ok()) << "truncation at " << cut << " accepted";
  }
}

TEST(RobustnessTest, BundleDecoderSurvivesBitFlips) {
  std::string valid = ValidBundleRecord();
  Random rng(202);
  for (int i = 0; i < 500; ++i) {
    std::string mutated = valid;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<char>(mutated[pos] ^
                                     (1 << rng.Uniform(8)));
    // Must not crash; may succeed (flip in free text) or error.
    auto result = DecodeBundle(mutated);
    (void)result;
  }
}

TEST(RobustnessTest, MessageBinaryDecoderSurvivesGarbage) {
  Random rng(303);
  for (int i = 0; i < 2000; ++i) {
    std::string garbage = RandomBytes(&rng, rng.Uniform(120));
    std::string_view input = garbage;
    Message msg;
    Status st = DecodeMessageBinary(&input, &msg);
    (void)st;  // any Status is fine; crashing is not
  }
}

TEST(RobustnessTest, MessageTsvDecoderSurvivesGarbageLines) {
  Random rng(404);
  Message msg;
  for (int i = 0; i < 2000; ++i) {
    std::string garbage = RandomBytes(&rng, rng.Uniform(150));
    // Strip newlines so it is a single "line".
    for (char& c : garbage) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    Status st = DecodeMessageTsv(garbage, &msg);
    (void)st;
  }
}

TEST(RobustnessTest, TweetParserSurvivesHostileText) {
  Random rng(606);
  for (int i = 0; i < 2000; ++i) {
    std::string garbage = RandomBytes(&rng, rng.Uniform(300));
    ParsedTweet parsed = ParseTweet(garbage);
    // Indicants must be bounded by input size.
    EXPECT_LE(parsed.hashtags.size(), garbage.size());
  }
  // Adversarial shapes.
  for (const char* hostile :
       {"RT @", "@@@@@", "####", "http://", "RT RT RT RT @a: @b: @c:",
        "\t\n\r", "a#b@c", "RT@user:x", "##tag", "@@user"}) {
    ParsedTweet parsed = ParseTweet(hostile);
    (void)parsed;
  }
}

}  // namespace
}  // namespace microprov
