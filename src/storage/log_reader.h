#ifndef MICROPROV_STORAGE_LOG_READER_H_
#define MICROPROV_STORAGE_LOG_READER_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/env.h"
#include "common/status.h"
#include "storage/log_format.h"

namespace microprov {
namespace log {

/// Sequentially reads records written by log::Writer. Corrupt or torn
/// fragments are skipped (with the byte count reported via
/// `dropped_bytes()`), so a crash mid-append loses at most the tail
/// record. A torn final frame — a partial header, a partial payload, or
/// a CRC mismatch on the very last frame in the file — is the expected
/// residue of a crash mid-append and reads as clean EOF; its bytes are
/// additionally classified under `torn_tail_bytes()` so recovery code
/// can distinguish an interrupted append from mid-log corruption.
class Reader {
 public:
  explicit Reader(std::unique_ptr<SequentialFile> file);

  /// Reads the next logical record into *record. Returns NotFound at EOF.
  Status ReadRecord(std::string* record);

  /// File offset of the first fragment header of the last returned
  /// record (a point-read address).
  uint64_t LastRecordOffset() const { return record_offset_; }

  /// File offset just past the last fragment of the record ReadRecord
  /// just returned: [LastRecordOffset(), LastRecordEnd()) is the span a
  /// point read fetches. Valid until the next ReadRecord call.
  uint64_t LastRecordEnd() const {
    return end_of_buffer_offset_ - buffer_.size() + buffer_pos_;
  }

  uint64_t dropped_bytes() const { return dropped_bytes_; }

  /// Subset of dropped_bytes() attributable to a torn tail (crash
  /// mid-append) rather than interior corruption.
  uint64_t torn_tail_bytes() const { return torn_tail_bytes_; }

 private:
  /// Reads the next physical fragment; returns its type or an eof/bad
  /// marker.
  enum ExtendedType : int {
    kEof = kMaxRecordType + 1,
    kBadRecord = kMaxRecordType + 2,
  };
  int ReadPhysicalRecord(std::string_view* fragment);

  std::unique_ptr<SequentialFile> file_;
  std::string buffer_;      // current block
  size_t buffer_pos_ = 0;   // read position within buffer_
  bool eof_ = false;
  uint64_t end_of_buffer_offset_ = 0;
  uint64_t fragment_offset_ = 0;  // of the last physical fragment read
  uint64_t record_offset_ = 0;
  uint64_t dropped_bytes_ = 0;
  uint64_t torn_tail_bytes_ = 0;
};

/// Reassembles one record from `*framed`, the file bytes starting at
/// `offset` that a point read fetched (the span Writer::AddRecord
/// appended, block-trailer padding included): checks every fragment's
/// CRC and type, and moves a fragmented record's payloads together in
/// place. On success *record views the record inside *framed.
Status UnframeRecord(uint64_t offset, std::string* framed,
                     std::string_view* record);

}  // namespace log
}  // namespace microprov

#endif  // MICROPROV_STORAGE_LOG_READER_H_
