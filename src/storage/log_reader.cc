#include "storage/log_reader.h"

#include <cstring>

#include "common/crc32c.h"

namespace microprov {
namespace log {
namespace {

/// The fields of the fragment header at `p` (kHeaderSize bytes).
struct FragmentHeader {
  uint32_t masked_crc;
  size_t length;
  uint8_t type;
};

FragmentHeader DecodeHeader(const char* p) {
  const unsigned char* h = reinterpret_cast<const unsigned char*>(p);
  return {static_cast<uint32_t>(h[0]) | (static_cast<uint32_t>(h[1]) << 8) |
              (static_cast<uint32_t>(h[2]) << 16) |
              (static_cast<uint32_t>(h[3]) << 24),
          static_cast<size_t>(h[4]) | (static_cast<size_t>(h[5]) << 8), h[6]};
}

/// Whether the fragment at `p`, whose payload must be readable, carries
/// the CRC of its type byte and payload.
bool CrcMatches(const char* p, const FragmentHeader& header) {
  uint32_t crc = crc32c::Extend(0, std::string_view(p + 6, 1));
  crc = crc32c::Extend(crc, std::string_view(p + kHeaderSize, header.length));
  return crc32c::Unmask(header.masked_crc) == crc;
}

}  // namespace

Reader::Reader(std::unique_ptr<SequentialFile> file)
    : file_(std::move(file)) {}

int Reader::ReadPhysicalRecord(std::string_view* fragment) {
  for (;;) {
    if (buffer_.size() - buffer_pos_ < kHeaderSize) {
      if (eof_) {
        // Trailing partial header at EOF: a torn write; drop it.
        const uint64_t torn = buffer_.size() - buffer_pos_;
        dropped_bytes_ += torn;
        torn_tail_bytes_ += torn;
        buffer_pos_ = buffer_.size();
        return kEof;
      }
      // Whatever remains is block-trailer padding (the writer never
      // starts a header with < kHeaderSize left in a block): discard it
      // and load the next block.
      buffer_.clear();
      buffer_pos_ = 0;
      std::string chunk;
      Status st = file_->Read(kBlockSize, &chunk);
      if (!st.ok() || chunk.empty()) {
        eof_ = true;
        continue;
      }
      // A short read is the file's last block: remember it so a frame
      // failing its CRC there can be classified as a torn tail.
      if (chunk.size() < kBlockSize) eof_ = true;
      end_of_buffer_offset_ += chunk.size();
      buffer_ = std::move(chunk);
      continue;
    }

    const char* fragment_start = buffer_.data() + buffer_pos_;
    const FragmentHeader header = DecodeHeader(fragment_start);
    const size_t length = header.length;
    const uint8_t type = header.type;

    if (type == kZeroType && length == 0) {
      // Block-trailer padding; skip to the end of this block region.
      buffer_pos_ += kHeaderSize;
      continue;
    }
    if (buffer_.size() - buffer_pos_ < kHeaderSize + length) {
      if (eof_) {
        const uint64_t torn = buffer_.size() - buffer_pos_;
        dropped_bytes_ += torn;
        torn_tail_bytes_ += torn;
        buffer_pos_ = buffer_.size();
        return kEof;
      }
      // Shouldn't happen with block-aligned writes; treat as corruption.
      dropped_bytes_ += buffer_.size() - buffer_pos_;
      buffer_pos_ = buffer_.size();
      return kBadRecord;
    }

    std::string_view payload(fragment_start + kHeaderSize, length);
    fragment_offset_ = end_of_buffer_offset_ - buffer_.size() + buffer_pos_;
    buffer_pos_ += kHeaderSize + length;
    if (!CrcMatches(fragment_start, header)) {
      dropped_bytes_ += kHeaderSize + length;
      if (eof_ && buffer_pos_ == buffer_.size()) {
        // CRC mismatch on the very last frame of the file: the frame was
        // being appended when the process died. Clean EOF, not corruption.
        torn_tail_bytes_ += kHeaderSize + length;
        return kEof;
      }
      return kBadRecord;
    }
    if (type > kMaxRecordType) {
      dropped_bytes_ += kHeaderSize + length;
      return kBadRecord;
    }
    *fragment = payload;
    return type;
  }
}

Status Reader::ReadRecord(std::string* record) {
  record->clear();
  bool in_fragmented_record = false;
  for (;;) {
    std::string_view fragment;
    int type = ReadPhysicalRecord(&fragment);
    switch (type) {
      case kFullType:
        if (in_fragmented_record) {
          // Unfinished earlier record: drop it, return this one.
          dropped_bytes_ += record->size();
          record->clear();
        }
        record->assign(fragment.data(), fragment.size());
        record_offset_ = fragment_offset_;
        return Status::OK();
      case kFirstType:
        if (in_fragmented_record) {
          dropped_bytes_ += record->size();
          record->clear();
        }
        record->assign(fragment.data(), fragment.size());
        record_offset_ = fragment_offset_;
        in_fragmented_record = true;
        break;
      case kMiddleType:
        if (!in_fragmented_record) {
          dropped_bytes_ += fragment.size();
        } else {
          record->append(fragment.data(), fragment.size());
        }
        break;
      case kLastType:
        if (!in_fragmented_record) {
          dropped_bytes_ += fragment.size();
        } else {
          record->append(fragment.data(), fragment.size());
          return Status::OK();
        }
        break;
      case kEof:
        if (in_fragmented_record) {
          // An unfinished FIRST/MIDDLE chain at EOF is the tail of an
          // interrupted multi-block append.
          dropped_bytes_ += record->size();
          torn_tail_bytes_ += record->size();
          record->clear();
        }
        return Status::NotFound("end of log");
      case kBadRecord:
        if (in_fragmented_record) {
          dropped_bytes_ += record->size();
          record->clear();
          in_fragmented_record = false;
        }
        break;
      default:
        return Status::Corruption("unknown record type");
    }
  }
}

Status UnframeRecord(uint64_t offset, std::string* framed,
                     std::string_view* record) {
  char* const base = framed->data();
  const size_t size = framed->size();
  size_t pos = 0;  // next fragment header
  size_t out = 0;  // end of the reassembled payload
  for (bool first = true;; first = false) {
    // The writer never starts a header with < kHeaderSize left in a
    // block; whatever remains there is zero fill.
    const size_t in_block = static_cast<size_t>((offset + pos) % kBlockSize);
    if (kBlockSize - in_block < kHeaderSize) pos += kBlockSize - in_block;
    if (pos > size || size - pos < kHeaderSize) {
      return Status::Corruption("truncated record header");
    }
    const FragmentHeader header = DecodeHeader(base + pos);
    if (size - pos - kHeaderSize < header.length) {
      return Status::Corruption("truncated record payload");
    }
    if (!CrcMatches(base + pos, header)) {
      return Status::Corruption("record checksum mismatch");
    }
    const bool opens = header.type == kFullType || header.type == kFirstType;
    const bool closes = header.type == kFullType || header.type == kLastType;
    if (header.type == kZeroType || header.type > kLastType ||
        opens != first) {
      return Status::Corruption("bad fragment sequence");
    }
    const char* payload = base + pos + kHeaderSize;
    pos += kHeaderSize + header.length;
    if (first && closes) {  // one FULL fragment: no move
      *record = std::string_view(payload, header.length);
      return Status::OK();
    }
    // Payloads only move toward the front: `out` trails `pos` by at
    // least one header per fragment.
    std::memmove(base + out, payload, header.length);
    out += header.length;
    if (closes) {
      *record = std::string_view(base, out);
      return Status::OK();
    }
  }
}

}  // namespace log
}  // namespace microprov
