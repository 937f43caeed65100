#include "storage/bundle_store.h"

#include <algorithm>

#include "common/logging.h"
#include "common/memory_usage.h"
#include "common/string_util.h"
#include "storage/bundle_codec.h"
#include "storage/log_reader.h"

namespace microprov {

namespace {

/// Top keywords per bundle fed into the archive's term index; they are
/// also the summary's words.
constexpr size_t kIndexKeywordsPerBundle = ArchivedSummary::kMaxWords;

}  // namespace

BundleStore::BundleStore(const Options& options) : options_(options) {}

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
    auto file_or = Env::Default()->NewSequentialFile(LogFileName(number));
    if (!file_or.ok()) return file_or.status();
    log::Reader reader(std::move(*file_or));
    std::string record;
    while (reader.ReadRecord(&record).ok()) {
      const uint64_t offset = reader.LastRecordOffset();
      Status st = IndexRecord(
          record,
          Location{number, offset, reader.LastRecordEnd() - offset});
      if (!st.ok()) {
        LOG_WARN() << "skipping undecodable bundle record in file "
                   << number << " @" << offset << ": " << st.ToString();
      }
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
  MICROPROV_RETURN_IF_ERROR(IndexRecord(
      record,
      Location{current_file_number_, offset, current_file_size_ - offset}));
  ++puts_;
  if (puts_counter_ != nullptr) puts_counter_->Increment();
  if (bytes_counter_ != nullptr) {
    // Framed on-disk size of this record (includes block padding).
    bytes_counter_->Increment(current_file_size_ - offset);
  }
  if (bundles_gauge_ != nullptr) {
    bundles_gauge_->Set(static_cast<int64_t>(index_.size()));
    index_bytes_gauge_->Set(static_cast<int64_t>(IndexBytes()));
  }
  return Status::OK();
}

uint64_t BundleStore::IndexBytes() const {
  uint64_t total = ApproxMapOverhead(index_) + postings_ * sizeof(BundleId);
  for (const auto& index : term_index_) total += ApproxMapOverhead(index);
  return total;
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
  index_bytes_gauge_ = registry->GetGauge(
      "microprov_store_index_bytes", shard_label,
      "Heap bytes of this store's term index, record addresses and "
      "bundle summaries (not in memory_bytes)");
  index_bytes_gauge_->Set(static_cast<int64_t>(IndexBytes()));
}

Status BundleStore::IndexRecord(std::string_view record,
                                Location location) {
  BundleRecordHeader header;
  MICROPROV_RETURN_IF_ERROR(ReadBundleRecordHeader(&record, &header));
  scratch_tags_.clear();
  scratch_words_.clear();
  Entry entry{location, ArchivedSummary{}};
  ArchivedSummary& summary = entry.summary;
  summary.size = header.count;
  BundleEntryView member;
  std::string_view piece;
  for (uint32_t i = 0; i < header.count; ++i) {
    MICROPROV_RETURN_IF_ERROR(ReadBundleRecordEntry(&record, &member));
    // Bundle::AddMessage's time range rule.
    const Timestamp date = member.msg.date;
    summary.start_time = i == 0 ? date : std::min(summary.start_time, date);
    summary.end_time = i == 0 ? date : std::max(summary.end_time, date);
    summary.last_update = std::max(summary.last_update, date);
    while (member.msg.hashtags.Pop(&piece)) scratch_tags_.push_back(piece);
    for (size_t kw = 0; kw < Bundle::kSummaryKeywordsPerMessage &&
                        member.msg.keywords.Pop(&piece);
         ++kw) {
      scratch_words_.push_back(piece);
    }
  }
  // The whole record parsed, so DecodeBundle would accept it: file it.
  max_bundle_id_ = std::max(max_bundle_id_, header.id);
  // Returns the key string `id` is filed under.
  auto add = [&](IndicantType type,
                 std::string_view term) -> const std::string* {
    auto& index = term_index_[static_cast<size_t>(type)];
    auto it = index.find(term);
    if (it == index.end()) it = index.try_emplace(std::string(term)).first;
    std::vector<BundleId>& postings = it->second;
    if (postings.empty() || postings.back() != header.id) {
      postings.push_back(header.id);
      ++postings_;
    }
    return &it->first;
  };
  std::sort(scratch_tags_.begin(), scratch_tags_.end());
  scratch_tags_.erase(std::unique(scratch_tags_.begin(), scratch_tags_.end()),
                      scratch_tags_.end());
  for (std::string_view tag : scratch_tags_) add(IndicantType::kHashtag, tag);

  std::sort(scratch_words_.begin(), scratch_words_.end());
  scratch_counts_.clear();
  for (std::string_view word : scratch_words_) {
    if (scratch_counts_.empty() || scratch_counts_.back().first != word) {
      scratch_counts_.emplace_back(word, 0);
    }
    ++scratch_counts_.back().second;
  }
  SelectTopByCount(&scratch_counts_, kIndexKeywordsPerBundle,
                   [](const auto& e) { return e.first; });
  for (const auto& [word, count] : scratch_counts_) {
    summary.words[summary.num_words++] = add(IndicantType::kKeyword, word);
  }
  index_[header.id] = entry;  // latest record wins
  return Status::OK();
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

Status BundleStore::ReadRecord(BundleId id, std::string* buffer,
                               std::string_view* record) {
  auto it = index_.find(id);
  if (it == index_.end()) {
    return Status::NotFound(
        StringPrintf("bundle %llu not in store", (unsigned long long)id));
  }
  const Location& location = it->second.location;
  // The current log file may have buffered data; flush before reading.
  if (location.file_number == current_file_number_) {
    MICROPROV_RETURN_IF_ERROR(writer_->Flush());
  }
  std::unique_ptr<RandomAccessFile>& file = readers_[location.file_number];
  if (file == nullptr) {  // first read of this log, or a failed open
    auto file_or = Env::Default()->NewRandomAccessFile(
        LogFileName(location.file_number));
    if (!file_or.ok()) return file_or.status();
    file = std::move(*file_or);
  }
  MICROPROV_RETURN_IF_ERROR(
      file->Read(location.offset, location.length, buffer));
  return log::UnframeRecord(location.offset, buffer, record);
}

StatusOr<std::shared_ptr<const Bundle>> BundleStore::Get(BundleId id) {
  std::string buffer;
  std::string_view record;
  MICROPROV_RETURN_IF_ERROR(ReadRecord(id, &buffer, &record));
  auto bundle_or = DecodeBundle(record);
  if (!bundle_or.ok()) return bundle_or.status();
  return std::shared_ptr<const Bundle>(std::move(*bundle_or));
}

std::vector<BundleId> BundleStore::ListBundleIds() const {
  std::vector<BundleId> ids;
  ids.reserve(index_.size());
  for (const auto& [id, entry] : index_) ids.push_back(id);
  return ids;
}

Status BundleStore::Scan(
    const std::function<Status(const Bundle& bundle)>& fn) {
  for (const auto& [id, entry] : index_) {
    auto bundle_or = Get(id);
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
  // Read every live record while the old files are still in place.
  struct Rewrite {
    BundleId id;
    std::string record;
  };
  std::vector<Rewrite> rewrites;
  rewrites.reserve(index_.size());
  std::string buffer;
  std::string_view record;
  for (const auto& [id, entry] : index_) {
    MICROPROV_RETURN_IF_ERROR(ReadRecord(id, &buffer, &record));
    rewrites.push_back(Rewrite{id, std::string(record)});
  }
  // Deterministic order keeps the output file stable for a given state.
  std::sort(rewrites.begin(), rewrites.end(),
            [](const Rewrite& a, const Rewrite& b) { return a.id < b.id; });

  std::vector<uint32_t> old_files = file_numbers_;
  MICROPROV_RETURN_IF_ERROR(writer_->Close());
  writer_.reset();
  readers_.clear();
  file_numbers_.clear();
  unsynced_files_.clear();
  MICROPROV_RETURN_IF_ERROR(OpenNewLogFile());

  for (const Rewrite& rewrite : rewrites) {
    const uint64_t offset = writer_->CurrentOffset();
    MICROPROV_RETURN_IF_ERROR(writer_->AddRecord(rewrite.record));
    index_[rewrite.id].location = Location{
        current_file_number_, offset, writer_->CurrentOffset() - offset};
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
