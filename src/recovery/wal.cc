#include "recovery/wal.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/coding.h"
#include "common/env.h"
#include "common/string_util.h"
#include "storage/log_reader.h"
#include "stream/message_codec.h"

namespace microprov {
namespace recovery {

namespace {
/// v1: varint version + message (no sequence; pre-group-commit).
/// v2: varint version + varint sequence + message.
constexpr uint32_t kWalRecordVersionLegacy = 1;
constexpr uint32_t kWalRecordVersion = 2;

std::string SegmentPath(const std::string& dir, uint64_t epoch,
                        uint32_t part) {
  return dir + "/" +
         StringPrintf("wal-%010" PRIu64 "-%06u.log", epoch, part);
}
}  // namespace

void EncodeWalRecord(uint64_t seq, const Message& msg, std::string* dst) {
  PutVarint32(dst, kWalRecordVersion);
  PutVarint64(dst, seq);
  EncodeMessageBinary(msg, dst);
}

Status DecodeWalRecord(std::string_view payload, uint64_t* seq,
                       Message* msg) {
  uint32_t version = 0;
  if (!GetVarint32(&payload, &version)) {
    return Status::Corruption("wal record: truncated version");
  }
  if (version == kWalRecordVersionLegacy) {
    *seq = 0;
  } else if (version == kWalRecordVersion) {
    if (!GetVarint64(&payload, seq)) {
      return Status::Corruption("wal record: truncated sequence");
    }
  } else {
    return Status::Corruption("wal record: unknown version");
  }
  return DecodeMessageBinary(&payload, msg);
}

bool ParseWalSegmentName(const std::string& name, uint64_t* epoch,
                         uint32_t* part) {
  // wal-<10 digits>-<6 digits>.log
  unsigned long long e = 0;
  unsigned int p = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "wal-%10llu-%6u.log%n", &e, &p,
                  &consumed) != 2 ||
      static_cast<size_t>(consumed) != name.size()) {
    return false;
  }
  *epoch = e;
  *part = p;
  return true;
}

StatusOr<std::vector<WalSegment>> ListWalSegments(const std::string& dir) {
  std::vector<WalSegment> segments;
  if (!Env::Default()->FileExists(dir)) return segments;
  auto names_or = Env::Default()->ListDir(dir);
  if (!names_or.ok()) return names_or.status();
  for (const std::string& name : *names_or) {
    WalSegment segment;
    if (!ParseWalSegmentName(name, &segment.epoch, &segment.part)) {
      continue;
    }
    segment.path = dir + "/" + name;
    segments.push_back(std::move(segment));
  }
  std::sort(segments.begin(), segments.end(),
            [](const WalSegment& a, const WalSegment& b) {
              return a.epoch != b.epoch ? a.epoch < b.epoch
                                        : a.part < b.part;
            });
  return segments;
}

StatusOr<uint32_t> NextFreeWalPart(const std::string& dir,
                                   uint64_t epoch) {
  auto segments_or = ListWalSegments(dir);
  if (!segments_or.ok()) return segments_or.status();
  uint32_t next = 0;
  for (const WalSegment& segment : *segments_or) {
    if (segment.epoch == epoch && segment.part >= next) {
      next = segment.part + 1;
    }
  }
  return next;
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(
    const WalOptions& options, uint64_t epoch) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("wal dir must be set");
  }
  MICROPROV_RETURN_IF_ERROR(
      Env::Default()->CreateDirIfMissing(options.dir));
  auto writer =
      std::unique_ptr<WalWriter>(new WalWriter(options, epoch));
  // Never reuse a file a previous process may have torn: place the new
  // part after everything already on disk for this epoch.
  auto part_or = NextFreeWalPart(options.dir, epoch);
  if (!part_or.ok()) return part_or.status();
  writer->next_part_ = *part_or;
  MICROPROV_RETURN_IF_ERROR(writer->OpenSegment());
  return writer;
}

Status WalWriter::OpenSegment() {
  const std::string path =
      SegmentPath(options_.dir, epoch_, next_part_);
  auto file_or = Env::Default()->NewWritableFile(path);
  if (!file_or.ok()) return file_or.status();
  writer_ = std::make_unique<log::Writer>(std::move(*file_or));
  ++next_part_;
  // Make the directory entry durable before the first record lands in
  // it (satellite of the rotation-durability fix in BundleStore).
  return Env::Default()->SyncDir(options_.dir);
}

Status WalWriter::AppendEncoded(std::string_view payload) {
  const uint64_t before = writer_->CurrentOffset();
  MICROPROV_RETURN_IF_ERROR(writer_->AddRecord(payload));
  // Offset delta, not payload size: frame headers and block padding are
  // real bytes on disk and must show up in the byte accounting.
  appended_bytes_ += writer_->CurrentOffset() - before;
  // Rotate as soon as the segment crosses the configured size — not on
  // the next append — so an idle log never sits on an oversized open
  // segment and the size bound holds to within one record.
  if (writer_->CurrentOffset() >= options_.rotate_bytes) {
    MICROPROV_RETURN_IF_ERROR(writer_->Close());
    MICROPROV_RETURN_IF_ERROR(OpenSegment());
  }
  return Status::OK();
}

Status WalWriter::RotateToEpoch(uint64_t epoch) {
  MICROPROV_RETURN_IF_ERROR(writer_->Close());
  epoch_ = epoch;
  // Same never-clobber scan as Open: a crash between a predecessor's
  // rotation and its checkpoint GC can leave `wal-<epoch>-000000.log`
  // on disk; starting at part 0 unconditionally would overwrite it.
  auto part_or = NextFreeWalPart(options_.dir, epoch);
  if (!part_or.ok()) return part_or.status();
  next_part_ = *part_or;
  return OpenSegment();
}

Status WalWriter::Flush() { return writer_->Flush(); }

Status WalWriter::Sync() { return writer_->Sync(); }

Status WalWriter::Close() { return writer_->Close(); }

StatusOr<std::vector<WalTailRecord>> ReadWalTail(const std::string& dir,
                                                 uint64_t after_epoch,
                                                 WalReplayStats* stats) {
  auto segments_or = ListWalSegments(dir);
  if (!segments_or.ok()) return segments_or.status();
  std::vector<WalTailRecord> out;
  std::vector<const WalSegment*> replayable;
  for (const WalSegment& segment : *segments_or) {
    if (segment.epoch > after_epoch) replayable.push_back(&segment);
  }
  for (size_t s = 0; s < replayable.size(); ++s) {
    const WalSegment& segment = *replayable[s];
    auto file_or = Env::Default()->NewSequentialFile(segment.path);
    if (!file_or.ok()) return file_or.status();
    log::Reader reader(std::move(*file_or));
    std::string record;
    while (true) {
      Status read = reader.ReadRecord(&record);
      if (read.IsNotFound()) break;  // clean end of segment
      MICROPROV_RETURN_IF_ERROR(read);
      WalTailRecord tail;
      tail.epoch = segment.epoch;
      tail.part = segment.part;
      MICROPROV_RETURN_IF_ERROR(
          DecodeWalRecord(record, &tail.seq, &tail.msg));
      out.push_back(std::move(tail));
      if (stats != nullptr) ++stats->messages;
    }
    const uint64_t torn = reader.torn_tail_bytes();
    const uint64_t interior = reader.dropped_bytes() - torn;
    if (interior > 0) {
      if (stats != nullptr) stats->dropped_bytes += interior;
      return Status::Corruption(StringPrintf(
          "wal: %" PRIu64 " bytes of interior corruption in %s",
          interior, segment.path.c_str()));
    }
    if (torn > 0) {
      if (stats != nullptr) stats->torn_tail_bytes += torn;
      // A torn tail is the residue of a crash mid-append, which can
      // only exist in the last file a writer had open. Anywhere else it
      // means records are missing from the middle of the stream.
      if (s + 1 != replayable.size()) {
        return Status::Corruption(StringPrintf(
            "wal: torn tail (%" PRIu64 " bytes) in non-final segment %s",
            torn, segment.path.c_str()));
      }
    }
  }
  return out;
}

Status RemoveWalSegmentsThrough(const std::string& dir,
                                uint64_t through_epoch) {
  auto segments_or = ListWalSegments(dir);
  if (!segments_or.ok()) return segments_or.status();
  bool removed = false;
  for (const WalSegment& segment : *segments_or) {
    if (segment.epoch > through_epoch) continue;
    MICROPROV_RETURN_IF_ERROR(Env::Default()->RemoveFile(segment.path));
    removed = true;
  }
  if (removed) {
    MICROPROV_RETURN_IF_ERROR(Env::Default()->SyncDir(dir));
  }
  return Status::OK();
}

}  // namespace recovery
}  // namespace microprov
