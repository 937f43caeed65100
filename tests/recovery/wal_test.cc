#include "recovery/wal.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/coding.h"
#include "common/env.h"
#include "storage/log_writer.h"
#include "stream/message_codec.h"
#include "testing/test_util.h"

namespace microprov {
namespace {

using recovery::EncodeWalRecord;
using recovery::ListWalSegments;
using recovery::ParseWalSegmentName;
using recovery::ReadWalTail;
using recovery::RemoveWalSegmentsThrough;
using recovery::WalOptions;
using recovery::WalReplayStats;
using recovery::WalSegment;
using recovery::WalTailRecord;
using recovery::WalWriter;
using testing_util::kTestEpoch;
using testing_util::MakeMessage;
using testing_util::ScopedTempDir;

/// Writes one record the way the group-commit flusher does: encode,
/// append, flush.
Status Append(WalWriter* writer, uint64_t seq, const Message& msg) {
  std::string payload;
  EncodeWalRecord(seq, msg, &payload);
  MICROPROV_RETURN_IF_ERROR(writer->AppendEncoded(payload));
  return writer->Flush();
}

std::vector<Message> Replay(const std::string& dir, uint64_t after_epoch,
                            WalReplayStats* stats) {
  std::vector<Message> out;
  auto records_or = ReadWalTail(dir, after_epoch, stats);
  EXPECT_TRUE(records_or.ok()) << records_or.status().ToString();
  if (!records_or.ok()) return out;
  for (WalTailRecord& record : *records_or) {
    out.push_back(std::move(record.msg));
  }
  return out;
}

TEST(WalSegmentNameTest, ParseAcceptsOnlyWellFormedNames) {
  uint64_t epoch = 0;
  uint32_t part = 0;
  EXPECT_TRUE(ParseWalSegmentName("wal-0000000003-000007.log", &epoch, &part));
  EXPECT_EQ(epoch, 3u);
  EXPECT_EQ(part, 7u);
  // Parsing is lenient about zero padding (numbers, not strings, are
  // authoritative)...
  EXPECT_TRUE(ParseWalSegmentName("wal-3-7.log", &epoch, &part));
  EXPECT_EQ(epoch, 3u);
  EXPECT_EQ(part, 7u);
  // ...but anything that is not exactly `wal-<epoch>-<part>.log` is not
  // a segment (tmp files, checkpoints, truncated names).
  for (const char* bad :
       {"wal-0000000003-000007.log.tmp", "wal-.log",
        "checkpoint-0000000003.snap", "wal-0000000003-000007", ""}) {
    EXPECT_FALSE(ParseWalSegmentName(bad, &epoch, &part)) << bad;
  }
}

TEST(WalWriterTest, AppendReplayRoundTrip) {
  ScopedTempDir dir;
  WalOptions options;
  options.dir = dir.path() + "/wal";
  auto writer_or = WalWriter::Open(options, 1);
  ASSERT_TRUE(writer_or.ok());
  WalWriter& writer = **writer_or;

  std::vector<Message> written;
  for (int i = 0; i < 50; ++i) {
    written.push_back(MakeMessage(i, kTestEpoch + i,
                                  "user" + std::to_string(i % 5),
                                  {"tag" + std::to_string(i % 3)}));
    ASSERT_TRUE(Append(&writer, i + 1, written.back()).ok());
  }
  EXPECT_GT(writer.appended_bytes(), 0u);
  ASSERT_TRUE(writer.Close().ok());

  WalReplayStats stats;
  std::vector<Message> replayed = Replay(options.dir, 0, &stats);
  ASSERT_EQ(replayed.size(), written.size());
  EXPECT_EQ(stats.messages, written.size());
  EXPECT_EQ(stats.torn_tail_bytes, 0u);
  EXPECT_EQ(stats.dropped_bytes, 0u);
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(replayed[i].id, written[i].id);
    EXPECT_EQ(replayed[i].date, written[i].date);
    EXPECT_EQ(replayed[i].user, written[i].user);
    EXPECT_EQ(replayed[i].hashtags, written[i].hashtags);
  }
}

TEST(WalWriterTest, RotatesPartsBySizeAndReplaysInOrder) {
  ScopedTempDir dir;
  WalOptions options;
  options.dir = dir.path() + "/wal";
  options.rotate_bytes = 512;  // tiny: force several parts
  auto writer_or = WalWriter::Open(options, 1);
  ASSERT_TRUE(writer_or.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(Append(writer_or->get(), i + 1,
                       MakeMessage(i, kTestEpoch + i, "u", {"filler"})).ok());
  }
  ASSERT_TRUE((*writer_or)->Close().ok());

  auto segments_or = ListWalSegments(options.dir);
  ASSERT_TRUE(segments_or.ok());
  ASSERT_GT(segments_or->size(), 1u) << "rotation never triggered";
  for (size_t i = 1; i < segments_or->size(); ++i) {
    EXPECT_LT((*segments_or)[i - 1].part, (*segments_or)[i].part);
  }
  // Rotation is immediate once the threshold is crossed, so every
  // segment but the last is at least rotate_bytes on disk.
  for (size_t i = 0; i + 1 < segments_or->size(); ++i) {
    auto size_or = Env::Default()->GetFileSize((*segments_or)[i].path);
    ASSERT_TRUE(size_or.ok());
    EXPECT_GE(*size_or, options.rotate_bytes)
        << (*segments_or)[i].path;
  }

  WalReplayStats stats;
  std::vector<Message> replayed = Replay(options.dir, 0, &stats);
  ASSERT_EQ(replayed.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(replayed[i].id, i) << "cross-part order broke";
  }
}

TEST(WalWriterTest, ReopenStartsFreshPartInsteadOfAppending) {
  // A torn tail must always be the last frame of a dead file; appending
  // to an existing segment would bury it mid-file where it reads as
  // interior corruption.
  ScopedTempDir dir;
  WalOptions options;
  options.dir = dir.path() + "/wal";
  {
    auto writer_or = WalWriter::Open(options, 1);
    ASSERT_TRUE(writer_or.ok());
    ASSERT_TRUE(
        Append(writer_or->get(), 1, MakeMessage(1, kTestEpoch, "a")).ok());
    ASSERT_TRUE((*writer_or)->Close().ok());
  }
  {
    auto writer_or = WalWriter::Open(options, 1);
    ASSERT_TRUE(writer_or.ok());
    ASSERT_TRUE(
        Append(writer_or->get(), 2, MakeMessage(2, kTestEpoch + 1, "b")).ok());
    ASSERT_TRUE((*writer_or)->Close().ok());
  }
  auto segments_or = ListWalSegments(options.dir);
  ASSERT_TRUE(segments_or.ok());
  EXPECT_EQ(segments_or->size(), 2u);
  WalReplayStats stats;
  std::vector<Message> replayed = Replay(options.dir, 0, &stats);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].id, 1);
  EXPECT_EQ(replayed[1].id, 2);
}

TEST(WalWriterTest, EpochRotationFiltersAndTruncates) {
  ScopedTempDir dir;
  WalOptions options;
  options.dir = dir.path() + "/wal";
  auto writer_or = WalWriter::Open(options, 1);
  ASSERT_TRUE(writer_or.ok());
  WalWriter& writer = **writer_or;
  ASSERT_TRUE(Append(&writer, 1, MakeMessage(1, kTestEpoch, "a")).ok());
  ASSERT_TRUE(Append(&writer, 2, MakeMessage(2, kTestEpoch + 1, "b")).ok());
  ASSERT_TRUE(writer.RotateToEpoch(2).ok());
  EXPECT_EQ(writer.epoch(), 2u);
  ASSERT_TRUE(Append(&writer, 3, MakeMessage(3, kTestEpoch + 2, "c")).ok());
  ASSERT_TRUE(writer.Close().ok());

  // Replay after checkpoint 1 sees only epoch-2 records.
  WalReplayStats stats;
  std::vector<Message> tail = Replay(options.dir, 1, &stats);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].id, 3);
  // Replay from scratch still sees everything.
  std::vector<Message> all = Replay(options.dir, 0, &stats);
  EXPECT_EQ(all.size(), 3u);

  // Checkpoint 1 installed: epoch <= 1 segments are garbage.
  ASSERT_TRUE(RemoveWalSegmentsThrough(options.dir, 1).ok());
  auto segments_or = ListWalSegments(options.dir);
  ASSERT_TRUE(segments_or.ok());
  ASSERT_EQ(segments_or->size(), 1u);
  EXPECT_EQ((*segments_or)[0].epoch, 2u);
  std::vector<Message> remaining = Replay(options.dir, 0, &stats);
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0].id, 3);
}

TEST(WalReplayTest, TornTailReadsAsCleanEof) {
  ScopedTempDir dir;
  WalOptions options;
  options.dir = dir.path() + "/wal";
  auto writer_or = WalWriter::Open(options, 1);
  ASSERT_TRUE(writer_or.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(Append(writer_or->get(), i + 1,
                       MakeMessage(i, kTestEpoch + i, "user", {"tag"})).ok());
  }
  ASSERT_TRUE((*writer_or)->Close().ok());

  auto segments_or = ListWalSegments(options.dir);
  ASSERT_TRUE(segments_or.ok());
  ASSERT_EQ(segments_or->size(), 1u);
  const std::string path = (*segments_or)[0].path;
  std::string contents;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &contents).ok());

  // Chop the file mid-final-frame at several depths: the tail record is
  // lost, every earlier record survives, and nothing reads as an error.
  for (size_t cut : {size_t{1}, size_t{3}, size_t{10}, size_t{25}}) {
    ASSERT_LT(cut, contents.size());
    ASSERT_TRUE(Env::Default()
                    ->WriteStringToFile(
                        path, contents.substr(0, contents.size() - cut))
                    .ok());
    WalReplayStats stats;
    std::vector<Message> replayed = Replay(options.dir, 0, &stats);
    EXPECT_EQ(replayed.size(), 19u) << "cut=" << cut;
    EXPECT_GT(stats.torn_tail_bytes, 0u) << "cut=" << cut;
    EXPECT_EQ(stats.dropped_bytes, 0u) << "cut=" << cut;
  }
}

TEST(WalWriterTest, RotateToEpochDoesNotClobberPredecessorSegments) {
  // Crash window: a predecessor rotated to epoch 2 (wrote records
  // there) but died before the checkpoint GC swept epoch 1. A new
  // writer recovering at epoch 1 that later rotates to epoch 2 must
  // slot in AFTER the predecessor's segments — resetting the part
  // counter to zero would silently overwrite durable records.
  ScopedTempDir dir;
  WalOptions options;
  options.dir = dir.path() + "/wal";
  {
    auto writer_or = WalWriter::Open(options, 2);
    ASSERT_TRUE(writer_or.ok());
    ASSERT_TRUE(
        Append(writer_or->get(), 1, MakeMessage(1, kTestEpoch, "a")).ok());
    ASSERT_TRUE((*writer_or)->Close().ok());
  }
  auto writer_or = WalWriter::Open(options, 1);
  ASSERT_TRUE(writer_or.ok());
  ASSERT_TRUE(
      Append(writer_or->get(), 2, MakeMessage(2, kTestEpoch + 1, "b")).ok());
  ASSERT_TRUE((*writer_or)->RotateToEpoch(2).ok());
  ASSERT_TRUE(
      Append(writer_or->get(), 3, MakeMessage(3, kTestEpoch + 2, "c")).ok());
  ASSERT_TRUE((*writer_or)->Close().ok());

  // The predecessor's record survives and replays before the rotated
  // writer's (epoch 2 part 0, then epoch 2 part 1).
  WalReplayStats stats;
  std::vector<Message> tail = Replay(options.dir, 1, &stats);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].id, 1);
  EXPECT_EQ(tail[1].id, 3);
}

TEST(WalWriterTest, AppendedBytesMatchOnDiskSegmentSizes) {
  // Byte accounting comes from file-offset deltas, so frame headers and
  // block padding are included: the counter must equal the sum of the
  // segment sizes exactly, across rotations.
  ScopedTempDir dir;
  WalOptions options;
  options.dir = dir.path() + "/wal";
  options.rotate_bytes = 512;
  auto writer_or = WalWriter::Open(options, 1);
  ASSERT_TRUE(writer_or.ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(Append(writer_or->get(), i + 1,
                       MakeMessage(i, kTestEpoch + i, "user", {"tag"})).ok());
  }
  const uint64_t appended = (*writer_or)->appended_bytes();
  ASSERT_TRUE((*writer_or)->Close().ok());

  auto segments_or = ListWalSegments(options.dir);
  ASSERT_TRUE(segments_or.ok());
  ASSERT_GT(segments_or->size(), 1u);
  uint64_t on_disk = 0;
  for (const WalSegment& segment : *segments_or) {
    auto size_or = Env::Default()->GetFileSize(segment.path);
    ASSERT_TRUE(size_or.ok());
    on_disk += *size_or;
  }
  EXPECT_EQ(appended, on_disk);
}

TEST(WalReplayTest, InteriorCorruptionIsAnErrorNotSilentTruncation) {
  // Bit-rot in the middle of a segment means records are missing from
  // the middle of the stream; replay must refuse rather than resume
  // past the hole with a silently shortened history.
  ScopedTempDir dir;
  WalOptions options;
  options.dir = dir.path() + "/wal";
  auto writer_or = WalWriter::Open(options, 1);
  ASSERT_TRUE(writer_or.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(Append(writer_or->get(), i + 1,
                       MakeMessage(i, kTestEpoch + i, "user", {"tag"})).ok());
  }
  ASSERT_TRUE((*writer_or)->Close().ok());

  auto segments_or = ListWalSegments(options.dir);
  ASSERT_TRUE(segments_or.ok());
  ASSERT_EQ(segments_or->size(), 1u);
  const std::string path = (*segments_or)[0].path;
  std::string contents;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &contents).ok());
  // Records 0-9 encode to one fixed frame size L (ids 10-19 pick up an
  // extra text digit, so the file is 20*L + 10 bytes). Flip payload
  // bytes of frame 5 — past its 7-byte header, so the frame length
  // stays intact and the reader sees a CRC mismatch with valid frames
  // after it (interior corruption), not a torn tail.
  ASSERT_EQ(contents.size() % 20, 10u);
  const size_t frame = (contents.size() - 10) / 20;
  for (size_t i = 5 * frame + 8; i < 5 * frame + 12; ++i) {
    contents[i] ^= 0x5a;
  }
  ASSERT_TRUE(Env::Default()->WriteStringToFile(path, contents).ok());

  WalReplayStats stats;
  Status status = ReadWalTail(options.dir, 0, &stats).status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_GT(stats.dropped_bytes, 0u);
}

TEST(WalReplayTest, TornTailInNonFinalSegmentIsAnError) {
  // A torn tail is only the legal residue of a crash in the LAST file a
  // writer had open; torn bytes in an earlier segment mean a mid-stream
  // hole and must fail loudly.
  ScopedTempDir dir;
  WalOptions options;
  options.dir = dir.path() + "/wal";
  {
    auto writer_or = WalWriter::Open(options, 1);
    ASSERT_TRUE(writer_or.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(Append(writer_or->get(), i + 1,
                         MakeMessage(i, kTestEpoch + i, "user", {"t"})).ok());
    }
    ASSERT_TRUE((*writer_or)->Close().ok());
  }
  {
    // Second incarnation: fresh part of the same epoch.
    auto writer_or = WalWriter::Open(options, 1);
    ASSERT_TRUE(writer_or.ok());
    ASSERT_TRUE(Append(writer_or->get(), 11,
                       MakeMessage(11, kTestEpoch + 11, "user", {"t"})).ok());
    ASSERT_TRUE((*writer_or)->Close().ok());
  }
  auto segments_or = ListWalSegments(options.dir);
  ASSERT_TRUE(segments_or.ok());
  ASSERT_EQ(segments_or->size(), 2u);
  const std::string first = (*segments_or)[0].path;
  std::string contents;
  ASSERT_TRUE(Env::Default()->ReadFileToString(first, &contents).ok());
  ASSERT_TRUE(Env::Default()
                  ->WriteStringToFile(
                      first, contents.substr(0, contents.size() - 5))
                  .ok());

  WalReplayStats stats;
  Status status = ReadWalTail(options.dir, 0, &stats).status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();

  // The same tear in the FINAL segment stays a clean EOF.
  ScopedTempDir dir2;
  WalOptions options2;
  options2.dir = dir2.path() + "/wal";
  {
    auto writer_or = WalWriter::Open(options2, 1);
    ASSERT_TRUE(writer_or.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(Append(writer_or->get(), i + 1,
                         MakeMessage(i, kTestEpoch + i, "user", {"t"})).ok());
    }
    ASSERT_TRUE((*writer_or)->Close().ok());
  }
  auto only_or = ListWalSegments(options2.dir);
  ASSERT_TRUE(only_or.ok());
  const std::string last = (*only_or)[0].path;
  ASSERT_TRUE(Env::Default()->ReadFileToString(last, &contents).ok());
  ASSERT_TRUE(Env::Default()
                  ->WriteStringToFile(
                      last, contents.substr(0, contents.size() - 5))
                  .ok());
  WalReplayStats stats2;
  std::vector<Message> replayed = Replay(options2.dir, 0, &stats2);
  EXPECT_EQ(replayed.size(), 9u);
  EXPECT_GT(stats2.torn_tail_bytes, 0u);
}

TEST(WalReplayTest, ReadWalTailCarriesSequenceAndProvenance) {
  ScopedTempDir dir;
  WalOptions options;
  options.dir = dir.path() + "/wal";
  auto writer_or = WalWriter::Open(options, 3);
  ASSERT_TRUE(writer_or.ok());
  ASSERT_TRUE(
      Append(writer_or->get(), 41, MakeMessage(1, kTestEpoch, "a")).ok());
  ASSERT_TRUE(
      Append(writer_or->get(), 42, MakeMessage(2, kTestEpoch + 1, "b")).ok());
  ASSERT_TRUE((*writer_or)->Close().ok());

  WalReplayStats stats;
  auto tail_or = ReadWalTail(options.dir, 0, &stats);
  ASSERT_TRUE(tail_or.ok());
  ASSERT_EQ(tail_or->size(), 2u);
  EXPECT_EQ((*tail_or)[0].seq, 41u);
  EXPECT_EQ((*tail_or)[1].seq, 42u);
  EXPECT_EQ((*tail_or)[0].epoch, 3u);
  EXPECT_EQ((*tail_or)[0].part, 0u);
  EXPECT_EQ((*tail_or)[1].msg.id, 2);
}

TEST(WalReplayTest, LegacyV1RecordsDecodeWithZeroSequence) {
  // Pre-group-commit WALs framed records as varint(1) + message, with
  // no sequence. They must keep replaying (seq = 0 = "unconditionally
  // durable in file order") so an upgraded binary recovers an old dir.
  ScopedTempDir dir;
  const std::string wal_dir = dir.path() + "/wal";
  ASSERT_TRUE(Env::Default()->CreateDirIfMissing(wal_dir).ok());
  {
    auto file_or = Env::Default()->NewWritableFile(
        wal_dir + "/wal-0000000001-000000.log");
    ASSERT_TRUE(file_or.ok());
    log::Writer legacy(std::move(*file_or));
    for (int i = 0; i < 3; ++i) {
      std::string payload;
      PutVarint32(&payload, 1);  // kWalRecordVersionLegacy
      EncodeMessageBinary(MakeMessage(i, kTestEpoch + i, "old"), &payload);
      ASSERT_TRUE(legacy.AddRecord(payload).ok());
    }
    ASSERT_TRUE(legacy.Close().ok());
  }
  WalReplayStats stats;
  auto tail_or = ReadWalTail(wal_dir, 0, &stats);
  ASSERT_TRUE(tail_or.ok());
  ASSERT_EQ(tail_or->size(), 3u);
  for (const WalTailRecord& record : *tail_or) {
    EXPECT_EQ(record.seq, 0u);
  }
  EXPECT_EQ((*tail_or)[2].msg.id, 2);
}

TEST(WalReplayTest, MissingDirectoryIsEmptyNotError) {
  ScopedTempDir dir;
  WalReplayStats stats;
  std::vector<Message> replayed =
      Replay(dir.path() + "/never-created", 0, &stats);
  EXPECT_TRUE(replayed.empty());
  EXPECT_EQ(stats.messages, 0u);
}

}  // namespace
}  // namespace microprov
