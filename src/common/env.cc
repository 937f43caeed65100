#include "common/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace microprov {

namespace {
Status ErrnoStatus(const std::string& context) {
  return Status::IOError(context + ": " + std::strerror(errno));
}
}  // namespace

// ---------------------------------------------------------------- Writable

WritableFile::~WritableFile() {
  if (file_ != nullptr) std::fclose(file_);
}

Status WritableFile::Append(std::string_view data) {
  if (file_ == nullptr) return Status::FailedPrecondition("file closed");
  if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
    return ErrnoStatus("write " + name_);
  }
  size_ += data.size();
  return Status::OK();
}

Status WritableFile::Flush() {
  if (file_ == nullptr) return Status::FailedPrecondition("file closed");
  if (std::fflush(file_) != 0) return ErrnoStatus("flush " + name_);
  return Status::OK();
}

Status WritableFile::Sync() {
  MICROPROV_RETURN_IF_ERROR(Flush());
  if (::fsync(::fileno(file_)) != 0) return ErrnoStatus("fsync " + name_);
  return Status::OK();
}

Status WritableFile::Close() {
  if (file_ == nullptr) return Status::OK();
  int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return ErrnoStatus("close " + name_);
  return Status::OK();
}

// -------------------------------------------------------------- Sequential

SequentialFile::~SequentialFile() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SequentialFile::Read(size_t n, std::string* result) {
  result->resize(n);
  size_t got = std::fread(result->data(), 1, n, file_);
  result->resize(got);
  if (got < n && std::ferror(file_)) return ErrnoStatus("read " + name_);
  return Status::OK();
}

Status SequentialFile::Skip(uint64_t n) {
  if (std::fseek(file_, static_cast<long>(n), SEEK_CUR) != 0) {
    return ErrnoStatus("seek " + name_);
  }
  return Status::OK();
}

// ------------------------------------------------------------ RandomAccess

RandomAccessFile::~RandomAccessFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status RandomAccessFile::Read(uint64_t offset, size_t n,
                              std::string* result) const {
  result->resize(n);
  ssize_t got = ::pread(fd_, result->data(), n,
                        static_cast<off_t>(offset));
  if (got < 0) return ErrnoStatus("pread " + name_);
  result->resize(static_cast<size_t>(got));
  return Status::OK();
}

// ------------------------------------------------------------------- Env

Env* Env::Default() {
  static Env* env = new Env();
  return env;
}

StatusOr<std::unique_ptr<WritableFile>> Env::NewWritableFile(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return ErrnoStatus("open(w) " + path);
  return std::unique_ptr<WritableFile>(new WritableFile(path, f));
}

StatusOr<std::unique_ptr<WritableFile>> Env::NewAppendableFile(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return ErrnoStatus("open(a) " + path);
  auto file = std::unique_ptr<WritableFile>(new WritableFile(path, f));
  long pos = std::ftell(f);
  if (pos > 0) file->size_ = static_cast<uint64_t>(pos);
  return file;
}

StatusOr<std::unique_ptr<SequentialFile>> Env::NewSequentialFile(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return ErrnoStatus("open(r) " + path);
  return std::unique_ptr<SequentialFile>(new SequentialFile(path, f));
}

StatusOr<std::unique_ptr<RandomAccessFile>> Env::NewRandomAccessFile(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open(ra) " + path);
  return std::unique_ptr<RandomAccessFile>(new RandomAccessFile(path, fd));
}

bool Env::FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

StatusOr<uint64_t> Env::GetFileSize(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return ErrnoStatus("stat " + path);
  return static_cast<uint64_t>(st.st_size);
}

Status Env::CreateDirIfMissing(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return ErrnoStatus("mkdir " + path);
}

Status Env::SyncDir(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("open(dir) " + path);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoStatus("fsync(dir) " + path);
  return Status::OK();
}

Status Env::RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0) return ErrnoStatus("unlink " + path);
  return Status::OK();
}

Status Env::RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return ErrnoStatus("rename " + from + " -> " + to);
  }
  return Status::OK();
}

StatusOr<std::vector<std::string>> Env::ListDir(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return ErrnoStatus("opendir " + path);
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(std::move(name));
  }
  ::closedir(dir);
  return names;
}

Status Env::ReadFileToString(const std::string& path,
                             std::string* contents) {
  contents->clear();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open(r) " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status status = ErrnoStatus("fstat " + path);
    ::close(fd);
    return status;
  }
  // One buffer sized from the file; the spare byte lets the final read
  // see end of file without regrowing it. A file still growing doubles it.
  contents->resize(static_cast<size_t>(st.st_size) + 1);
  size_t got = 0;
  for (;;) {
    if (got == contents->size()) contents->resize(2 * got);
    const ssize_t n =
        ::read(fd, contents->data() + got, contents->size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      Status status = ErrnoStatus("read " + path);
      ::close(fd);
      contents->clear();
      return status;
    }
    if (n == 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  contents->resize(got);
  return Status::OK();
}

Status Env::WriteStringToFile(const std::string& path,
                              std::string_view data) {
  const std::string tmp = path + ".tmp";
  {
    auto file_or = NewWritableFile(tmp);
    if (!file_or.ok()) return file_or.status();
    auto& file = *file_or;
    MICROPROV_RETURN_IF_ERROR(file->Append(data));
    MICROPROV_RETURN_IF_ERROR(file->Close());
  }
  return RenameFile(tmp, path);
}

}  // namespace microprov
