#include "common/env.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::ScopedTempDir;

class EnvTest : public ::testing::Test {
 protected:
  ScopedTempDir dir_;
  Env* env_ = Env::Default();
};

TEST_F(EnvTest, WriteReadRoundTrip) {
  const std::string path = dir_.path() + "/file.txt";
  ASSERT_TRUE(env_->WriteStringToFile(path, "hello world").ok());
  std::string contents;
  ASSERT_TRUE(env_->ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "hello world");
}

TEST_F(EnvTest, WritableFileAppendsAndTracksSize) {
  const std::string path = dir_.path() + "/appended";
  auto file_or = env_->NewWritableFile(path);
  ASSERT_TRUE(file_or.ok());
  auto& file = *file_or;
  ASSERT_TRUE(file->Append("abc").ok());
  ASSERT_TRUE(file->Append("defg").ok());
  EXPECT_EQ(file->size(), 7u);
  ASSERT_TRUE(file->Close().ok());
  auto size_or = env_->GetFileSize(path);
  ASSERT_TRUE(size_or.ok());
  EXPECT_EQ(*size_or, 7u);
}

TEST_F(EnvTest, AppendableFileResumesAtEnd) {
  const std::string path = dir_.path() + "/resume";
  ASSERT_TRUE(env_->WriteStringToFile(path, "12345").ok());
  auto file_or = env_->NewAppendableFile(path);
  ASSERT_TRUE(file_or.ok());
  EXPECT_EQ((*file_or)->size(), 5u);
  ASSERT_TRUE((*file_or)->Append("67").ok());
  ASSERT_TRUE((*file_or)->Close().ok());
  std::string contents;
  ASSERT_TRUE(env_->ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "1234567");
}

TEST_F(EnvTest, SequentialReadInChunks) {
  const std::string path = dir_.path() + "/seq";
  ASSERT_TRUE(env_->WriteStringToFile(path, "0123456789").ok());
  auto file_or = env_->NewSequentialFile(path);
  ASSERT_TRUE(file_or.ok());
  std::string chunk;
  ASSERT_TRUE((*file_or)->Read(4, &chunk).ok());
  EXPECT_EQ(chunk, "0123");
  ASSERT_TRUE((*file_or)->Skip(2).ok());
  ASSERT_TRUE((*file_or)->Read(100, &chunk).ok());
  EXPECT_EQ(chunk, "6789");
  ASSERT_TRUE((*file_or)->Read(10, &chunk).ok());
  EXPECT_TRUE(chunk.empty());  // EOF
}

TEST_F(EnvTest, RandomAccessReadsAtOffsets) {
  const std::string path = dir_.path() + "/ra";
  ASSERT_TRUE(env_->WriteStringToFile(path, "abcdefghij").ok());
  auto file_or = env_->NewRandomAccessFile(path);
  ASSERT_TRUE(file_or.ok());
  std::string chunk;
  ASSERT_TRUE((*file_or)->Read(3, 4, &chunk).ok());
  EXPECT_EQ(chunk, "defg");
  ASSERT_TRUE((*file_or)->Read(8, 100, &chunk).ok());
  EXPECT_EQ(chunk, "ij");  // clipped at EOF
}

TEST_F(EnvTest, MissingFileErrors) {
  EXPECT_FALSE(env_->FileExists(dir_.path() + "/absent"));
  EXPECT_FALSE(env_->NewSequentialFile(dir_.path() + "/absent").ok());
  EXPECT_FALSE(env_->GetFileSize(dir_.path() + "/absent").ok());
  std::string contents;
  EXPECT_TRUE(env_->ReadFileToString(dir_.path() + "/absent", &contents)
                  .IsIOError());
}

TEST_F(EnvTest, CreateDirIsIdempotent) {
  const std::string sub = dir_.path() + "/sub";
  ASSERT_TRUE(env_->CreateDirIfMissing(sub).ok());
  ASSERT_TRUE(env_->CreateDirIfMissing(sub).ok());
  EXPECT_TRUE(env_->FileExists(sub));
}

TEST_F(EnvTest, SyncDirFsyncsDirectoriesOnly) {
  ASSERT_TRUE(env_->SyncDir(dir_.path()).ok());
  // Missing path and regular files both fail (O_DIRECTORY).
  EXPECT_FALSE(env_->SyncDir(dir_.path() + "/absent").ok());
  const std::string file = dir_.path() + "/regular";
  ASSERT_TRUE(env_->WriteStringToFile(file, "x").ok());
  EXPECT_FALSE(env_->SyncDir(file).ok());
}

TEST_F(EnvTest, RenameMoves) {
  const std::string a = dir_.path() + "/a";
  const std::string b = dir_.path() + "/b";
  ASSERT_TRUE(env_->WriteStringToFile(a, "data").ok());
  ASSERT_TRUE(env_->RenameFile(a, b).ok());
  EXPECT_FALSE(env_->FileExists(a));
  EXPECT_TRUE(env_->FileExists(b));
}

TEST_F(EnvTest, RemoveFileDeletes) {
  const std::string path = dir_.path() + "/gone";
  ASSERT_TRUE(env_->WriteStringToFile(path, "x").ok());
  ASSERT_TRUE(env_->RemoveFile(path).ok());
  EXPECT_FALSE(env_->FileExists(path));
  EXPECT_TRUE(env_->RemoveFile(path).IsIOError());
}

TEST_F(EnvTest, ListDirSeesEntries) {
  ASSERT_TRUE(env_->WriteStringToFile(dir_.path() + "/one", "1").ok());
  ASSERT_TRUE(env_->WriteStringToFile(dir_.path() + "/two", "2").ok());
  auto names_or = env_->ListDir(dir_.path());
  ASSERT_TRUE(names_or.ok());
  auto names = *names_or;
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"one", "two"}));
}

TEST_F(EnvTest, WriteStringToFileIsAtomicReplacement) {
  const std::string path = dir_.path() + "/atomic";
  ASSERT_TRUE(env_->WriteStringToFile(path, "first").ok());
  ASSERT_TRUE(env_->WriteStringToFile(path, "second").ok());
  std::string contents;
  ASSERT_TRUE(env_->ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "second");
  // No leftover temp file.
  auto names_or = env_->ListDir(dir_.path());
  ASSERT_TRUE(names_or.ok());
  EXPECT_EQ(names_or->size(), 1u);
}

TEST_F(EnvTest, LargeFileRoundTrip) {
  const std::string path = dir_.path() + "/big";
  std::string big(300000, 'z');
  ASSERT_TRUE(env_->WriteStringToFile(path, big).ok());
  std::string contents;
  ASSERT_TRUE(env_->ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents.size(), big.size());
  EXPECT_EQ(contents, big);
}

TEST_F(EnvTest, ReadFileToStringSizesAtEdges) {
  // Empty, one byte, and one byte past three 64 KiB chunks.
  for (size_t size : {size_t{0}, size_t{1}, size_t{3 * 65536 + 1}}) {
    const std::string path = dir_.path() + "/edge" + std::to_string(size);
    std::string data(size, '\0');
    for (size_t i = 0; i < size; ++i) data[i] = static_cast<char>(i * 7);
    ASSERT_TRUE(env_->WriteStringToFile(path, data).ok());
    std::string contents = "stale";
    ASSERT_TRUE(env_->ReadFileToString(path, &contents).ok()) << size;
    EXPECT_EQ(contents.size(), size);
    EXPECT_EQ(contents, data) << size;
  }
}

}  // namespace
}  // namespace microprov
