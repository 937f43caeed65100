#include "storage/log_reader.h"

#include "common/crc32c.h"

namespace microprov {
namespace log {

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

    const unsigned char* header = reinterpret_cast<const unsigned char*>(
        buffer_.data() + buffer_pos_);
    const uint32_t masked_crc =
        static_cast<uint32_t>(header[0]) |
        (static_cast<uint32_t>(header[1]) << 8) |
        (static_cast<uint32_t>(header[2]) << 16) |
        (static_cast<uint32_t>(header[3]) << 24);
    const size_t length = static_cast<size_t>(header[4]) |
                          (static_cast<size_t>(header[5]) << 8);
    const uint8_t type = header[6];

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

    std::string_view payload(buffer_.data() + buffer_pos_ + kHeaderSize,
                             length);
    // CRC check covers type + payload.
    uint32_t crc = crc32c::Extend(
        0, std::string_view(buffer_.data() + buffer_pos_ + 6, 1));
    crc = crc32c::Extend(crc, payload);
    fragment_offset_ = end_of_buffer_offset_ - buffer_.size() + buffer_pos_;
    buffer_pos_ += kHeaderSize + length;
    if (crc32c::Unmask(masked_crc) != crc) {
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

}  // namespace log
}  // namespace microprov
