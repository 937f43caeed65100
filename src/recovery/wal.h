#ifndef MICROPROV_RECOVERY_WAL_H_
#define MICROPROV_RECOVERY_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "storage/log_writer.h"
#include "stream/message.h"

namespace microprov {
namespace recovery {

/// Knobs for one shard's write-ahead log.
struct WalOptions {
  /// Directory holding this shard's segments (created if missing).
  std::string dir;
  /// Start a new segment part once the current one exceeds this.
  uint64_t rotate_bytes = 8ull << 20;
};

/// One WAL segment file. Segments are named
/// `wal-<epoch:010>-<part:06>.log`: `epoch` is the checkpoint sequence
/// the records follow (records in epoch E come after checkpoint E-1 and
/// are folded into checkpoint E), `part` counts size rotations within
/// the epoch. Replay order is (epoch, part) ascending.
struct WalSegment {
  uint64_t epoch = 0;
  uint32_t part = 0;
  std::string path;
};

/// Appends the v2 WAL record encoding of (`seq`, `msg`) to *dst:
/// varint version, varint sequence number, then the binary message.
/// `seq` is the service-global acceptance sequence; recovery uses it to
/// trim replay to the contiguous durable watermark and to dedupe
/// records across crash incarnations.
void EncodeWalRecord(uint64_t seq, const Message& msg, std::string* dst);

/// Decodes one WAL record payload. v2 records carry their sequence;
/// legacy v1 records (pre-group-commit) decode with *seq = 0, meaning
/// "no sequence recorded — unconditionally durable in file order".
Status DecodeWalRecord(std::string_view payload, uint64_t* seq,
                       Message* msg);

/// Appends accepted messages for one shard, framed with the same
/// block/CRC format as the bundle store logs (storage/log_format.h).
/// Single-writer; the DurabilityManager's flusher thread serializes all
/// appends and calls Flush() or Sync() once per batch. A writer never
/// appends to a pre-existing file: Open and every rotation start a fresh
/// part, so a torn tail from a previous process is always the last
/// frame of a dead file.
class WalWriter {
 public:
  /// Opens a writer for `epoch`, starting a new part after any existing
  /// segments of that epoch. Creates the directory (fsyncing it, so the
  /// new entries survive power loss).
  static StatusOr<std::unique_ptr<WalWriter>> Open(
      const WalOptions& options, uint64_t epoch);

  /// Appends one already-encoded record payload (EncodeWalRecord) with
  /// NO flush — the group-commit flusher batches many of these and then
  /// calls Flush() or Sync() once per batch. Rotates parts by size.
  Status AppendEncoded(std::string_view payload);

  /// Switches future appends to `epoch` (post-checkpoint truncation
  /// boundary): closes the current segment and opens a fresh part of
  /// the new epoch, scanning past any segment a predecessor process
  /// already left under that epoch (never clobber: the predecessor's
  /// rotation may not have been garbage-collected yet).
  Status RotateToEpoch(uint64_t epoch);

  Status Flush();
  Status Sync();
  Status Close();

  uint64_t epoch() const { return epoch_; }
  /// Bytes this writer added to its segments (all epochs), accounted
  /// from file-offset deltas so frame headers and block padding are
  /// included — this matches on-disk segment sizes exactly.
  uint64_t appended_bytes() const { return appended_bytes_; }

 private:
  WalWriter(const WalOptions& options, uint64_t epoch)
      : options_(options), epoch_(epoch) {}
  Status OpenSegment();

  WalOptions options_;
  uint64_t epoch_;
  uint32_t next_part_ = 0;
  std::unique_ptr<log::Writer> writer_;
  uint64_t appended_bytes_ = 0;
};

/// Parses `name` as a WAL segment filename; false if it is not one.
bool ParseWalSegmentName(const std::string& name, uint64_t* epoch,
                         uint32_t* part);

/// All segments under `dir`, sorted by (epoch, part). Missing directory
/// reads as empty.
StatusOr<std::vector<WalSegment>> ListWalSegments(const std::string& dir);

/// Smallest part number not used by any existing segment of `epoch`
/// under `dir` (0 for a fresh epoch). Shared by Open and RotateToEpoch
/// so neither ever reuses a file a previous process may have torn.
StatusOr<uint32_t> NextFreeWalPart(const std::string& dir,
                                   uint64_t epoch);

/// Tallies from one replay pass.
struct WalReplayStats {
  uint64_t messages = 0;
  /// Bytes lost to a torn final frame (expected after a crash).
  uint64_t torn_tail_bytes = 0;
  /// Bytes lost to interior corruption (never expected; replay fails
  /// with Corruption when this would be nonzero).
  uint64_t dropped_bytes = 0;
};

/// One replayed record plus where it came from, for watermark recovery:
/// `seq` is the acceptance sequence (0 for legacy v1 records), and
/// (epoch, part) locate the segment so cross-incarnation duplicates can
/// be resolved last-writer-wins.
struct WalTailRecord {
  uint64_t seq = 0;
  uint64_t epoch = 0;
  uint32_t part = 0;
  Message msg;
};

/// Reads every record in segments with epoch > `after_epoch`, in
/// (epoch, part, file) order. A torn final frame of the LAST replayed
/// segment reads as clean EOF (the legal residue of a crash
/// mid-append); a torn tail in any earlier segment, or interior
/// corruption anywhere, fails with Status::Corruption — silently
/// resuming past a mid-log hole would replay a stream with records
/// missing from the middle.
StatusOr<std::vector<WalTailRecord>> ReadWalTail(const std::string& dir,
                                                 uint64_t after_epoch,
                                                 WalReplayStats* stats);

/// Deletes segments with epoch <= `through_epoch` (post-checkpoint
/// truncation).
Status RemoveWalSegmentsThrough(const std::string& dir,
                                uint64_t through_epoch);

}  // namespace recovery
}  // namespace microprov

#endif  // MICROPROV_RECOVERY_WAL_H_
