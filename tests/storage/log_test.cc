#include <gtest/gtest.h>

#include <string>

#include "common/env.h"
#include "storage/log_reader.h"
#include "storage/log_writer.h"
#include "testing/test_util.h"

namespace microprov {
namespace log {
namespace {

using testing_util::ScopedTempDir;

class LogTest : public ::testing::Test {
 protected:
  std::string LogPath() const { return dir_.path() + "/test.log"; }

  std::unique_ptr<Writer> NewWriter() {
    auto file_or = Env::Default()->NewWritableFile(LogPath());
    EXPECT_TRUE(file_or.ok());
    return std::make_unique<Writer>(std::move(*file_or));
  }

  std::unique_ptr<Reader> NewReader() {
    auto file_or = Env::Default()->NewSequentialFile(LogPath());
    EXPECT_TRUE(file_or.ok());
    return std::make_unique<Reader>(std::move(*file_or));
  }

  std::vector<std::string> ReadAll() {
    auto reader = NewReader();
    std::vector<std::string> records;
    std::string record;
    while (reader->ReadRecord(&record).ok()) {
      records.push_back(record);
    }
    dropped_ = reader->dropped_bytes();
    torn_ = reader->torn_tail_bytes();
    return records;
  }

  ScopedTempDir dir_;
  uint64_t dropped_ = 0;
  uint64_t torn_ = 0;
};

TEST_F(LogTest, WriteReadFewRecords) {
  auto writer = NewWriter();
  ASSERT_TRUE(writer->AddRecord("one").ok());
  ASSERT_TRUE(writer->AddRecord("two").ok());
  ASSERT_TRUE(writer->AddRecord("").ok());  // empty record is legal
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(ReadAll(),
            (std::vector<std::string>{"one", "two", ""}));
  EXPECT_EQ(dropped_, 0u);
}

TEST_F(LogTest, RecordSpanningMultipleBlocks) {
  auto writer = NewWriter();
  std::string big(kBlockSize * 3 + 1234, 'A');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i % 26));
  }
  ASSERT_TRUE(writer->AddRecord(big).ok());
  ASSERT_TRUE(writer->AddRecord("after").ok());
  ASSERT_TRUE(writer->Close().ok());
  auto records = ReadAll();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], big);
  EXPECT_EQ(records[1], "after");
}

TEST_F(LogTest, RecordExactlyAtBlockBoundary) {
  auto writer = NewWriter();
  // Fill so the next header would land with < kHeaderSize left in block.
  std::string first(kBlockSize - kHeaderSize - 3, 'x');
  ASSERT_TRUE(writer->AddRecord(first).ok());
  ASSERT_TRUE(writer->AddRecord("tail").ok());
  ASSERT_TRUE(writer->Close().ok());
  auto records = ReadAll();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].size(), first.size());
  EXPECT_EQ(records[1], "tail");
}

TEST_F(LogTest, ManySmallRecords) {
  auto writer = NewWriter();
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(writer->AddRecord("record-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  auto records = ReadAll();
  ASSERT_EQ(records.size(), static_cast<size_t>(n));
  EXPECT_EQ(records[4999], "record-4999");
}

TEST_F(LogTest, TornTailIsDroppedCleanly) {
  auto writer = NewWriter();
  ASSERT_TRUE(writer->AddRecord("committed").ok());
  ASSERT_TRUE(writer->AddRecord("torn-record-payload").ok());
  ASSERT_TRUE(writer->Close().ok());
  // Truncate mid-way through the second record.
  std::string contents;
  ASSERT_TRUE(
      Env::Default()->ReadFileToString(LogPath(), &contents).ok());
  contents.resize(contents.size() - 8);
  ASSERT_TRUE(
      Env::Default()->WriteStringToFile(LogPath(), contents).ok());
  auto records = ReadAll();
  EXPECT_EQ(records, (std::vector<std::string>{"committed"}));
  EXPECT_GT(dropped_, 0u);
  // The loss is classified as a torn tail — the expected crash artifact
  // — not interior corruption.
  EXPECT_EQ(torn_, dropped_);
}

TEST_F(LogTest, TornFinalFrameCrcMismatchReadsAsCleanEof) {
  // A crash can also leave the final frame complete in length but with
  // bytes missing from the page cache (CRC fails). That must read as
  // clean EOF too: only a *non-final* CRC failure is corruption.
  auto writer = NewWriter();
  ASSERT_TRUE(writer->AddRecord("committed").ok());
  ASSERT_TRUE(writer->AddRecord("final-frame-payload").ok());
  ASSERT_TRUE(writer->Close().ok());
  std::string contents;
  ASSERT_TRUE(
      Env::Default()->ReadFileToString(LogPath(), &contents).ok());
  size_t pos = contents.find("payload");
  ASSERT_NE(pos, std::string::npos);
  contents[pos] ^= 0x01;
  ASSERT_TRUE(
      Env::Default()->WriteStringToFile(LogPath(), contents).ok());
  auto records = ReadAll();
  EXPECT_EQ(records, (std::vector<std::string>{"committed"}));
  EXPECT_GT(torn_, 0u);
}

TEST_F(LogTest, CorruptRecordSkippedOthersSurvive) {
  auto writer = NewWriter();
  ASSERT_TRUE(writer->AddRecord("first").ok());
  ASSERT_TRUE(writer->AddRecord("second-corrupted").ok());
  ASSERT_TRUE(writer->AddRecord("third").ok());
  ASSERT_TRUE(writer->Close().ok());
  std::string contents;
  ASSERT_TRUE(
      Env::Default()->ReadFileToString(LogPath(), &contents).ok());
  // Flip a byte inside the second record's payload.
  size_t pos = contents.find("corrupted");
  ASSERT_NE(pos, std::string::npos);
  contents[pos] ^= 0x01;
  ASSERT_TRUE(
      Env::Default()->WriteStringToFile(LogPath(), contents).ok());
  auto records = ReadAll();
  EXPECT_EQ(records, (std::vector<std::string>{"first", "third"}));
  EXPECT_GT(dropped_, 0u);
  // Interior corruption is NOT a torn tail.
  EXPECT_EQ(torn_, 0u);
}

TEST_F(LogTest, EmptyLogIsEmpty) {
  { auto writer = NewWriter(); ASSERT_TRUE(writer->Close().ok()); }
  EXPECT_TRUE(ReadAll().empty());
}

TEST_F(LogTest, BinaryPayloadsSurvive) {
  auto writer = NewWriter();
  std::string binary;
  for (int i = 0; i < 512; ++i) {
    binary.push_back(static_cast<char>(i & 0xFF));
  }
  ASSERT_TRUE(writer->AddRecord(binary).ok());
  ASSERT_TRUE(writer->Close().ok());
  auto records = ReadAll();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], binary);
}

TEST_F(LogTest, PointReadsUnframeEveryRecord) {
  // Sizes that put records in one fragment, across block boundaries and
  // over several whole blocks; the small ones shift later records so
  // some start in a block trailer.
  const size_t sizes[] = {0,   10,  kBlockSize - 2 * kHeaderSize - 3,
                          5,   70000, kBlockSize, 1,
                          40000};
  std::vector<std::string> records;
  auto writer = NewWriter();
  for (size_t i = 0; i < std::size(sizes); ++i) {
    std::string record(sizes[i], '\0');
    for (size_t b = 0; b < record.size(); ++b) {
      record[b] = static_cast<char>('a' + (b * 7 + i) % 26);
    }
    ASSERT_TRUE(writer->AddRecord(record).ok());
    records.push_back(std::move(record));
  }
  ASSERT_TRUE(writer->Close().ok());

  struct Span {
    uint64_t offset;
    uint64_t end;
  };
  std::vector<Span> spans;
  auto reader = NewReader();
  std::string record;
  while (reader->ReadRecord(&record).ok()) {
    spans.push_back({reader->LastRecordOffset(), reader->LastRecordEnd()});
  }
  ASSERT_EQ(spans.size(), records.size());

  auto file_or = Env::Default()->NewRandomAccessFile(LogPath());
  ASSERT_TRUE(file_or.ok());
  std::string framed;
  std::string_view got;
  for (size_t i = 0; i < spans.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const Span& span = spans[i];
    ASSERT_TRUE(
        (*file_or)->Read(span.offset, span.end - span.offset, &framed).ok());
    ASSERT_TRUE(UnframeRecord(span.offset, &framed, &got).ok());
    EXPECT_EQ(got, records[i]);
    if (span.end - span.offset <= kHeaderSize) continue;
    // One byte short, or one flipped payload byte, is corruption.
    ASSERT_TRUE((*file_or)
                    ->Read(span.offset, span.end - span.offset - 1, &framed)
                    .ok());
    EXPECT_TRUE(UnframeRecord(span.offset, &framed, &got).IsCorruption());
    ASSERT_TRUE(
        (*file_or)->Read(span.offset, span.end - span.offset, &framed).ok());
    framed[framed.size() - 1] ^= 0x20;
    EXPECT_TRUE(UnframeRecord(span.offset, &framed, &got).IsCorruption());
  }
}

TEST_F(LogTest, CurrentOffsetAdvances) {
  auto writer = NewWriter();
  uint64_t off0 = writer->CurrentOffset();
  ASSERT_TRUE(writer->AddRecord("x").ok());
  uint64_t off1 = writer->CurrentOffset();
  EXPECT_EQ(off0, 0u);
  EXPECT_EQ(off1, kHeaderSize + 1);
}

}  // namespace
}  // namespace log
}  // namespace microprov
