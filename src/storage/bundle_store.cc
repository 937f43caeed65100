#include "storage/bundle_store.h"

#include <algorithm>

#include "common/crc32c.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "storage/bundle_codec.h"
#include "storage/log_format.h"

namespace microprov {

namespace {

/// Top keywords per bundle fed into the archive's term index.
constexpr size_t kIndexKeywordsPerBundle = 10;

// Fragment-level scanner over an in-memory log image. Yields each logical
// record with its start offset. Tolerates a torn tail.
class BufferLogScanner {
 public:
  explicit BufferLogScanner(std::string_view data) : data_(data) {}

  /// Returns false at end of data. On true, *record and *start_offset are
  /// set. Corrupt fragments are skipped.
  bool Next(std::string* record, uint64_t* start_offset) {
    record->clear();
    bool in_fragment = false;
    uint64_t record_start = 0;
    for (;;) {
      // Skip block trailers too small for a header.
      size_t in_block = pos_ % log::kBlockSize;
      if (log::kBlockSize - in_block < log::kHeaderSize) {
        pos_ += log::kBlockSize - in_block;
      }
      if (pos_ + log::kHeaderSize > data_.size()) return false;
      const unsigned char* h =
          reinterpret_cast<const unsigned char*>(data_.data() + pos_);
      const uint32_t masked_crc = static_cast<uint32_t>(h[0]) |
                                  (static_cast<uint32_t>(h[1]) << 8) |
                                  (static_cast<uint32_t>(h[2]) << 16) |
                                  (static_cast<uint32_t>(h[3]) << 24);
      const size_t length =
          static_cast<size_t>(h[4]) | (static_cast<size_t>(h[5]) << 8);
      const uint8_t type = h[6];
      if (type == log::kZeroType && length == 0) {
        pos_ += log::kHeaderSize;
        continue;
      }
      if (pos_ + log::kHeaderSize + length > data_.size()) return false;
      std::string_view payload(data_.data() + pos_ + log::kHeaderSize,
                               length);
      uint32_t crc = crc32c::Extend(
          0, std::string_view(data_.data() + pos_ + 6, 1));
      crc = crc32c::Extend(crc, payload);
      const uint64_t frag_start = pos_;
      pos_ += log::kHeaderSize + length;
      if (crc32c::Unmask(masked_crc) != crc ||
          type > log::kMaxRecordType) {
        record->clear();
        in_fragment = false;
        continue;  // skip corrupt fragment
      }
      switch (type) {
        case log::kFullType:
          record->assign(payload);
          *start_offset = frag_start;
          return true;
        case log::kFirstType:
          record->assign(payload);
          record_start = frag_start;
          in_fragment = true;
          break;
        case log::kMiddleType:
          if (in_fragment) record->append(payload);
          break;
        case log::kLastType:
          if (in_fragment) {
            record->append(payload);
            *start_offset = record_start;
            return true;
          }
          break;
        default:
          break;
      }
    }
  }

 private:
  std::string_view data_;
  uint64_t pos_ = 0;
};

}  // namespace

BundleStore::BundleStore(const Options& options)
    : options_(options), cache_(options.cache_entries) {}

BundleStore::~BundleStore() {
  if (writer_ != nullptr) {
    Status st = writer_->Close();
    if (!st.ok()) {
      LOG_WARN() << "closing bundle store log: " << st.ToString();
    }
  }
}

std::string BundleStore::LogFileName(uint32_t number) const {
  return StringPrintf("%s/bundles-%06u.log", options_.dir.c_str(), number);
}

StatusOr<std::unique_ptr<BundleStore>> BundleStore::Open(
    const Options& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("bundle store dir must be set");
  }
  MICROPROV_RETURN_IF_ERROR(
      Env::Default()->CreateDirIfMissing(options.dir));
  auto store = std::unique_ptr<BundleStore>(new BundleStore(options));
  MICROPROV_RETURN_IF_ERROR(store->RecoverFromDir());
  MICROPROV_RETURN_IF_ERROR(store->OpenNewLogFile());
  return store;
}

Status BundleStore::RecoverFromDir() {
  auto names_or = Env::Default()->ListDir(options_.dir);
  if (!names_or.ok()) return names_or.status();
  for (const std::string& name : *names_or) {
    unsigned number = 0;
    if (std::sscanf(name.c_str(), "bundles-%06u.log", &number) != 1) {
      continue;
    }
    file_numbers_.push_back(number);
  }
  std::sort(file_numbers_.begin(), file_numbers_.end());

  for (uint32_t number : file_numbers_) {
    std::string contents;
    MICROPROV_RETURN_IF_ERROR(Env::Default()->ReadFileToString(
        LogFileName(number), &contents));
    BufferLogScanner scanner(contents);
    std::string record;
    uint64_t offset = 0;
    while (scanner.Next(&record, &offset)) {
      auto bundle_or = DecodeBundle(record);
      if (!bundle_or.ok()) {
        LOG_WARN() << "skipping undecodable bundle record in file "
                   << number << " @" << offset << ": "
                   << bundle_or.status().ToString();
        continue;
      }
      const BundleId id = (*bundle_or)->id();
      index_[id] = Location{number, offset};  // latest record wins
      max_bundle_id_ = std::max(max_bundle_id_, id);
      IndexBundleTerms(**bundle_or);
    }
    current_file_number_ = number;
  }
  return Status::OK();
}

Status BundleStore::OpenNewLogFile() {
  ++current_file_number_;
  auto file_or =
      Env::Default()->NewWritableFile(LogFileName(current_file_number_));
  if (!file_or.ok()) return file_or.status();
  writer_ = std::make_unique<log::Writer>(std::move(*file_or));
  current_file_size_ = 0;
  file_numbers_.push_back(current_file_number_);
  // The new directory entry must itself be durable, or a power loss
  // after rotation can leave records in a file that recovery never sees.
  return Env::Default()->SyncDir(options_.dir);
}

Status BundleStore::Put(const Bundle& bundle) {
  obs::ScopedLatencyTimer timer(put_hist_);
  if (current_file_size_ >= options_.rotate_bytes) {
    MICROPROV_RETURN_IF_ERROR(writer_->Close());
    unsynced_files_.push_back(current_file_number_);
    MICROPROV_RETURN_IF_ERROR(OpenNewLogFile());
  }
  std::string record;
  EncodeBundle(bundle, &record);
  const uint64_t offset = writer_->CurrentOffset();
  MICROPROV_RETURN_IF_ERROR(writer_->AddRecord(record));
  current_file_size_ = writer_->CurrentOffset();
  index_[bundle.id()] = Location{current_file_number_, offset};
  max_bundle_id_ = std::max(max_bundle_id_, bundle.id());
  cache_.Erase(bundle.id());
  IndexBundleTerms(bundle);
  ++puts_;
  if (puts_counter_ != nullptr) puts_counter_->Increment();
  if (bytes_counter_ != nullptr) {
    // Framed on-disk size of this record (includes block padding).
    bytes_counter_->Increment(current_file_size_ - offset);
  }
  if (bundles_gauge_ != nullptr) {
    bundles_gauge_->Set(static_cast<int64_t>(index_.size()));
  }
  return Status::OK();
}

void BundleStore::BindMetrics(obs::MetricsRegistry* registry,
                              const std::string& shard_label) {
  puts_counter_ =
      registry->GetCounter("microprov_store_puts_total", "",
                           "Bundle records appended to the on-disk store");
  bytes_counter_ = registry->GetCounter(
      "microprov_store_bytes_written_total", "",
      "Framed log bytes written by bundle dumps");
  syncs_counter_ = registry->GetCounter(
      "microprov_store_syncs_total", "",
      "Bundle-store fsyncs (power-loss-safe checkpoints)");
  put_hist_ =
      registry->GetHistogram("microprov_store_put_nanos", "",
                             "Latency of one bundle dump (encode+append)");
  bundles_gauge_ =
      registry->GetGauge("microprov_store_bundles", shard_label,
                         "Bundles resident in this store");
  bundles_gauge_->Set(static_cast<int64_t>(index_.size()));
}

void BundleStore::IndexBundleTerms(const Bundle& bundle) {
  auto add = [&](IndicantType type, const std::string& term) {
    std::vector<BundleId>& postings =
        term_index_[static_cast<size_t>(type)][term];
    if (postings.empty() || postings.back() != bundle.id()) {
      postings.push_back(bundle.id());
    }
  };
  for (const auto& [tag, count] :
       bundle.ResolvedCounts(IndicantType::kHashtag)) {
    add(IndicantType::kHashtag, tag);
  }
  for (const auto& [word, count] :
       bundle.TopKeywords(kIndexKeywordsPerBundle)) {
    add(IndicantType::kKeyword, word);
  }
}

std::vector<BundleId> BundleStore::FindByTerm(
    IndicantType type, const std::string& term) const {
  const auto& index = term_index_[static_cast<size_t>(type)];
  auto it = index.find(term);
  if (it == index.end()) return {};
  // Dedup (re-puts may append the same id twice, non-adjacently).
  std::vector<BundleId> out = it->second;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Status BundleStore::ReadRecordAt(uint32_t file_number, uint64_t offset,
                                 std::string* record) {
  auto file_or =
      Env::Default()->NewRandomAccessFile(LogFileName(file_number));
  if (!file_or.ok()) return file_or.status();
  auto& file = *file_or;

  record->clear();
  uint64_t pos = offset;
  bool first = true;
  for (;;) {
    // Skip block trailer when too little room remains for a header.
    size_t in_block = static_cast<size_t>(pos % log::kBlockSize);
    if (log::kBlockSize - in_block < log::kHeaderSize) {
      pos += log::kBlockSize - in_block;
    }
    std::string header;
    MICROPROV_RETURN_IF_ERROR(file->Read(pos, log::kHeaderSize, &header));
    if (header.size() < log::kHeaderSize) {
      return Status::Corruption("truncated record header");
    }
    const unsigned char* h =
        reinterpret_cast<const unsigned char*>(header.data());
    const uint32_t masked_crc = static_cast<uint32_t>(h[0]) |
                                (static_cast<uint32_t>(h[1]) << 8) |
                                (static_cast<uint32_t>(h[2]) << 16) |
                                (static_cast<uint32_t>(h[3]) << 24);
    const size_t length =
        static_cast<size_t>(h[4]) | (static_cast<size_t>(h[5]) << 8);
    const uint8_t type = h[6];
    if (type == log::kZeroType && length == 0) {
      pos += log::kHeaderSize;
      continue;
    }
    std::string payload;
    MICROPROV_RETURN_IF_ERROR(
        file->Read(pos + log::kHeaderSize, length, &payload));
    if (payload.size() < length) {
      return Status::Corruption("truncated record payload");
    }
    uint32_t crc =
        crc32c::Extend(0, std::string_view(header.data() + 6, 1));
    crc = crc32c::Extend(crc, payload);
    if (crc32c::Unmask(masked_crc) != crc) {
      return Status::Corruption("record checksum mismatch");
    }
    pos += log::kHeaderSize + length;
    switch (type) {
      case log::kFullType:
        if (!first) return Status::Corruption("unexpected FULL fragment");
        *record = std::move(payload);
        return Status::OK();
      case log::kFirstType:
        if (!first) return Status::Corruption("unexpected FIRST fragment");
        *record = std::move(payload);
        first = false;
        break;
      case log::kMiddleType:
        if (first) return Status::Corruption("unexpected MIDDLE fragment");
        record->append(payload);
        break;
      case log::kLastType:
        if (first) return Status::Corruption("unexpected LAST fragment");
        record->append(payload);
        return Status::OK();
      default:
        return Status::Corruption("bad fragment type");
    }
  }
}

StatusOr<std::shared_ptr<const Bundle>> BundleStore::Get(BundleId id) {
  if (auto cached = cache_.Get(id)) return *cached;
  auto it = index_.find(id);
  if (it == index_.end()) {
    return Status::NotFound(
        StringPrintf("bundle %llu not in store", (unsigned long long)id));
  }
  // The current log file may have buffered data; flush before reading.
  if (it->second.file_number == current_file_number_) {
    MICROPROV_RETURN_IF_ERROR(writer_->Flush());
  }
  std::string record;
  MICROPROV_RETURN_IF_ERROR(
      ReadRecordAt(it->second.file_number, it->second.offset, &record));
  auto bundle_or = DecodeBundle(record);
  if (!bundle_or.ok()) return bundle_or.status();
  std::shared_ptr<const Bundle> bundle(std::move(*bundle_or));
  cache_.Put(id, bundle);
  return bundle;
}

std::vector<BundleId> BundleStore::ListBundleIds() const {
  std::vector<BundleId> ids;
  ids.reserve(index_.size());
  for (const auto& [id, loc] : index_) ids.push_back(id);
  return ids;
}

Status BundleStore::Scan(
    const std::function<Status(const Bundle& bundle)>& fn) {
  MICROPROV_RETURN_IF_ERROR(writer_->Flush());
  for (const auto& [id, loc] : index_) {
    std::string record;
    MICROPROV_RETURN_IF_ERROR(
        ReadRecordAt(loc.file_number, loc.offset, &record));
    auto bundle_or = DecodeBundle(record);
    if (!bundle_or.ok()) return bundle_or.status();
    MICROPROV_RETURN_IF_ERROR(fn(**bundle_or));
  }
  return Status::OK();
}

Status BundleStore::Flush() { return writer_->Flush(); }

Status BundleStore::Sync() {
  // fsync works on the file, not the descriptor, so reopening a closed
  // log reaches the data its writer left in the page cache.
  for (uint32_t number : unsynced_files_) {
    auto file_or = Env::Default()->NewAppendableFile(LogFileName(number));
    if (!file_or.ok()) return file_or.status();
    MICROPROV_RETURN_IF_ERROR((*file_or)->Sync());
  }
  unsynced_files_.clear();
  MICROPROV_RETURN_IF_ERROR(writer_->Sync());
  if (syncs_counter_ != nullptr) syncs_counter_->Increment();
  return Status::OK();
}

Status BundleStore::Compact() {
  MICROPROV_RETURN_IF_ERROR(writer_->Flush());

  // Read every live record while the old files are still in place.
  struct Rewrite {
    BundleId id;
    std::string record;
  };
  std::vector<Rewrite> rewrites;
  rewrites.reserve(index_.size());
  for (const auto& [id, loc] : index_) {
    std::string record;
    MICROPROV_RETURN_IF_ERROR(
        ReadRecordAt(loc.file_number, loc.offset, &record));
    rewrites.push_back(Rewrite{id, std::move(record)});
  }
  // Deterministic order keeps the output file stable for a given state.
  std::sort(rewrites.begin(), rewrites.end(),
            [](const Rewrite& a, const Rewrite& b) { return a.id < b.id; });

  std::vector<uint32_t> old_files = file_numbers_;
  MICROPROV_RETURN_IF_ERROR(writer_->Close());
  writer_.reset();
  file_numbers_.clear();
  unsynced_files_.clear();
  MICROPROV_RETURN_IF_ERROR(OpenNewLogFile());

  for (const Rewrite& rewrite : rewrites) {
    const uint64_t offset = writer_->CurrentOffset();
    MICROPROV_RETURN_IF_ERROR(writer_->AddRecord(rewrite.record));
    index_[rewrite.id] = Location{current_file_number_, offset};
  }
  MICROPROV_RETURN_IF_ERROR(writer_->Flush());
  current_file_size_ = writer_->CurrentOffset();

  // Old logs are dead now; remove them.
  for (uint32_t number : old_files) {
    MICROPROV_RETURN_IF_ERROR(
        Env::Default()->RemoveFile(LogFileName(number)));
  }
  ++compactions_;
  return Status::OK();
}

StatusOr<uint64_t> BundleStore::TotalLogBytes() const {
  uint64_t total = 0;
  for (uint32_t number : file_numbers_) {
    auto size_or = Env::Default()->GetFileSize(LogFileName(number));
    if (!size_or.ok()) return size_or.status();
    total += *size_or;
  }
  return total;
}

}  // namespace microprov
