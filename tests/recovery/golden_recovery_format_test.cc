// Golden-file pins for the durability wire formats: the snapshot
// (EngineState / ServiceSnapshot) encoding and the WAL segment frame
// bytes. These are on-disk formats a newer binary must keep reading —
// a diff here means recovery compatibility broke, not just a test.
// Pinned the same way as the 155-byte bundle record in
// storage/golden_format_test.cc.

#include <gtest/gtest.h>

#include <string>

#include "common/env.h"
#include "core/engine_state.h"
#include "recovery/snapshot.h"
#include "recovery/wal.h"
#include "storage/bundle_codec.h"
#include "testing/clone_reference.h"
#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::kTestEpoch;
using testing_util::ScopedTempDir;

std::string ToHex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

/// The same two-message bundle as the storage golden test, so the
/// snapshot pin composes the already-pinned 155-byte bundle record.
std::unique_ptr<Bundle> HandcraftedBundle() {
  auto bundle = std::make_unique<Bundle>(42);
  Message m1;
  m1.id = 1;
  m1.date = kTestEpoch;
  m1.user = "alice";
  m1.text = "Go #redsox beat the yankees http://bit.ly/1";
  m1.hashtags = {"redsox"};
  m1.urls = {"bit.ly/1"};
  m1.keywords = {"beat", "yanke"};
  bundle->AddMessage(m1, kInvalidMessageId, ConnectionType::kText, 0.0f);
  Message m2;
  m2.id = 2;
  m2.date = kTestEpoch + 60;
  m2.user = "bob";
  m2.text = "RT @alice: Go #redsox";
  m2.hashtags = {"redsox"};
  m2.is_retweet = true;
  m2.retweet_of_user = "alice";
  m2.retweet_of_id = 1;
  bundle->AddMessage(m2, 1, ConnectionType::kRt, 1.0f);
  bundle->Close();
  return bundle;
}

EngineState HandcraftedState() {
  EngineState state;
  state.messages_ingested = 2;
  state.next_bundle_id = 43;
  state.pool_stats.bundles_created = 1;
  state.pool_stats.bundles_closed = 1;
  state.terms[static_cast<size_t>(IndicantType::kUser)] = {"alice"};
  state.terms[static_cast<size_t>(IndicantType::kUrl)] = {"bit.ly/1"};
  state.terms[static_cast<size_t>(IndicantType::kHashtag)] = {"redsox"};
  state.terms[static_cast<size_t>(IndicantType::kKeyword)] = {"beat",
                                                              "yanke"};
  testing_util::AppendRecord(*HandcraftedBundle(), &state);
  return state;
}

TEST(GoldenRecoveryFormatTest, EngineStateBytesUnchanged) {
  std::string encoded;
  recovery::EncodeEngineState(HandcraftedState(), &encoded);
  EXPECT_EQ(encoded.size(), 204u);
  // Note the embedded 155-byte bundle record (the "012a0102..." run):
  // the snapshot composes the already-pinned bundle wire format
  // unchanged.
  EXPECT_EQ(
      ToHex(encoded),
      "01022b0100000000010106726564736f7801086269742e6c792f310204626561"
      "740579616e6b650105616c696365019b01012a0102028090e3a90905616c6963"
      "652b476f2023726564736f782062656174207468652079616e6b656573206874"
      "74703a2f2f6269742e6c792f310106726564736f7801086269742e6c792f3102"
      "04626561740579616e6b6500000101030000000004f890e3a90903626f621552"
      "542040616c6963653a20476f2023726564736f780106726564736f7800000105"
      "616c6963650202000000803f");

  std::string_view input(encoded);
  EngineState decoded;
  ASSERT_TRUE(recovery::DecodeEngineState(&input, &decoded).ok());
  EXPECT_EQ(decoded.messages_ingested, 2u);
  EXPECT_EQ(decoded.next_bundle_id, 43u);
  ASSERT_EQ(decoded.bundles.size(), 1u);
  EXPECT_EQ(decoded.bundles[0].id, 42u);
  auto bundle_or = DecodeBundle(decoded.bundles[0].bytes);
  ASSERT_TRUE(bundle_or.ok());
  EXPECT_EQ((*bundle_or)->size(), 2u);
}

TEST(GoldenRecoveryFormatTest, ServiceSnapshotBytesUnchanged) {
  recovery::ServiceSnapshot snapshot;
  snapshot.num_shards = 1;
  snapshot.watermark = kTestEpoch + 60;
  snapshot.accepted = 2;
  recovery::ShardSnapshot shard;
  shard.clock = kTestEpoch + 60;
  shard.state = HandcraftedState();
  snapshot.shards.push_back(std::move(shard));

  std::string encoded;
  recovery::EncodeServiceSnapshot(snapshot, &encoded);
  EXPECT_EQ(encoded.size(), 225u);
  // "4d50534e" = the MPSN magic (little-endian); the final 4 bytes are
  // the masked crc32c trailer over everything before it.
  EXPECT_EQ(
      ToHex(encoded),
      "4d50534e0101f890e3a90902f890e3a90901022b010000000001010672656473"
      "6f7801086269742e6c792f310204626561740579616e6b650105616c69636501"
      "9b01012a0102028090e3a90905616c6963652b476f2023726564736f78206265"
      "6174207468652079616e6b65657320687474703a2f2f6269742e6c792f310106"
      "726564736f7801086269742e6c792f310204626561740579616e6b6500000101"
      "030000000004f890e3a90903626f621552542040616c6963653a20476f202372"
      "6564736f780106726564736f7800000105616c6963650202000000803f8f599a"
      "40");

  auto decoded_or = recovery::DecodeServiceSnapshot(encoded);
  ASSERT_TRUE(decoded_or.ok());
  EXPECT_EQ(decoded_or->accepted, 2u);
}

TEST(GoldenRecoveryFormatTest, WalSegmentBytesUnchanged) {
  ScopedTempDir dir;
  recovery::WalOptions options;
  options.dir = dir.path() + "/wal";
  auto writer_or = recovery::WalWriter::Open(options, 1);
  ASSERT_TRUE(writer_or.ok());

  Message msg;
  msg.id = 7;
  msg.date = kTestEpoch;
  msg.user = "alice";
  msg.text = "Go #redsox";
  msg.hashtags = {"redsox"};
  // The group-commit flusher's write path: encode, append, flush.
  std::string payload;
  recovery::EncodeWalRecord(9, msg, &payload);
  ASSERT_TRUE((*writer_or)->AppendEncoded(payload).ok());
  ASSERT_TRUE((*writer_or)->Flush().ok());
  ASSERT_TRUE((*writer_or)->Close().ok());

  auto segments_or = recovery::ListWalSegments(options.dir);
  ASSERT_TRUE(segments_or.ok());
  ASSERT_EQ(segments_or->size(), 1u);
  EXPECT_EQ((*segments_or)[0].epoch, 1u);
  EXPECT_EQ((*segments_or)[0].part, 0u);

  std::string contents;
  ASSERT_TRUE(Env::Default()
                  ->ReadFileToString((*segments_or)[0].path, &contents)
                  .ok());
  // log_format frame: masked crc32c(4) | length(2 LE) | type(1=FULL),
  // then payload = record version varint (2) + acceptance sequence
  // varint (9) + EncodeMessageBinary.
  EXPECT_EQ(contents.size(), 45u);
  EXPECT_EQ(
      ToHex(contents),
      "d0257dd426000102090e8090e3a90905616c6963650a476f2023726564736f78"
      "0106726564736f780000000001");
}

TEST(GoldenRecoveryFormatTest, LegacyWalRecordPayloadStillDecodes) {
  // The exact payload bytes a pre-group-commit binary framed (record
  // version 1, no sequence): an upgraded binary must keep decoding
  // them, reporting seq 0 ("unconditionally durable in file order").
  const std::string hex =
      "010e8090e3a90905616c6963650a476f2023726564736f780106726564736f78"
      "0000000001";
  std::string payload;
  for (size_t i = 0; i < hex.size(); i += 2) {
    payload.push_back(static_cast<char>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  uint64_t seq = 99;
  Message msg;
  ASSERT_TRUE(recovery::DecodeWalRecord(payload, &seq, &msg).ok());
  EXPECT_EQ(seq, 0u);
  EXPECT_EQ(msg.id, 7);
  EXPECT_EQ(msg.user, "alice");
  EXPECT_EQ(msg.text, "Go #redsox");
  ASSERT_EQ(msg.hashtags.size(), 1u);
  EXPECT_EQ(msg.hashtags[0], "redsox");
}

TEST(GoldenRecoveryFormatTest, ServiceDeltaBytesUnchanged) {
  recovery::ServiceDelta delta;
  delta.parent_seq = 3;
  delta.num_shards = 1;
  delta.watermark = kTestEpoch + 120;
  delta.accepted = 4;
  recovery::ShardDelta shard;
  shard.clock = kTestEpoch + 120;
  shard.delta.messages_ingested = 4;
  shard.delta.next_bundle_id = 44;
  shard.delta.pool_stats.bundles_created = 2;
  shard.delta.pool_stats.bundles_closed = 1;
  shard.delta.base_terms[static_cast<size_t>(IndicantType::kUser)] = 1;
  shard.delta.base_terms[static_cast<size_t>(IndicantType::kUrl)] = 1;
  shard.delta.base_terms[static_cast<size_t>(IndicantType::kHashtag)] = 1;
  shard.delta.base_terms[static_cast<size_t>(IndicantType::kKeyword)] = 2;
  shard.delta.new_terms[static_cast<size_t>(IndicantType::kUser)] = {
      "carol"};
  shard.delta.removed = {7};
  testing_util::AppendRecord(*HandcraftedBundle(), &shard.delta);
  delta.shards.push_back(std::move(shard));

  std::string encoded;
  recovery::EncodeServiceDelta(delta, &encoded);
  // "4d50444c" = the MPDL magic (little-endian); the final 4 bytes are
  // the masked crc32c trailer over everything before it.
  EXPECT_EQ(encoded.size(), 205u);
  EXPECT_EQ(
      ToHex(encoded),
      "4d50444c010301f091e3a90904f091e3a90901042c020000000001010001000200"
      "0101056361726f6c0107019b01012a0102028090e3a90905616c6963652b476f20"
      "23726564736f782062656174207468652079616e6b65657320687474703a2f2f62"
      "69742e6c792f310106726564736f7801086269742e6c792f310204626561740579"
      "616e6b6500000101030000000004f890e3a90903626f621552542040616c696365"
      "3a20476f2023726564736f780106726564736f7800000105616c69636502020000"
      "00803f60475237");

  auto decoded_or = recovery::DecodeServiceDelta(encoded);
  ASSERT_TRUE(decoded_or.ok()) << decoded_or.status().ToString();
  EXPECT_EQ(decoded_or->parent_seq, 3u);
  EXPECT_EQ(decoded_or->accepted, 4u);
  ASSERT_EQ(decoded_or->shards.size(), 1u);
  EXPECT_EQ(decoded_or->shards[0].delta.removed.size(), 1u);

  // The delta applies over the pinned base image: bundle 42 is upserted
  // in place, bundle 7 (absent here) drops from the removal set, and
  // the new dictionary tail lands after the base terms.
  recovery::ServiceSnapshot base;
  base.num_shards = 1;
  base.watermark = kTestEpoch + 60;
  base.accepted = 2;
  recovery::ShardSnapshot base_shard;
  base_shard.clock = kTestEpoch + 60;
  base_shard.state = HandcraftedState();
  base.shards.push_back(std::move(base_shard));
  ASSERT_TRUE(
      recovery::ApplyServiceDelta(&base, std::move(*decoded_or)).ok());
  EXPECT_EQ(base.accepted, 4u);
  ASSERT_EQ(base.shards.size(), 1u);
  const EngineState& state = base.shards[0].state;
  EXPECT_EQ(state.messages_ingested, 4u);
  EXPECT_EQ(state.next_bundle_id, 44u);
  ASSERT_EQ(
      state.terms[static_cast<size_t>(IndicantType::kUser)].size(), 2u);
  EXPECT_EQ(state.terms[static_cast<size_t>(IndicantType::kUser)][1],
            "carol");
  ASSERT_EQ(state.bundles.size(), 1u);
  EXPECT_EQ(state.bundles[0].id, 42u);
}

}  // namespace
}  // namespace microprov
