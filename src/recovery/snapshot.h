#ifndef MICROPROV_RECOVERY_SNAPSHOT_H_
#define MICROPROV_RECOVERY_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/statusor.h"
#include "core/engine_state.h"

namespace microprov {
namespace recovery {

/// One shard's checkpointed state: the engine's durable state plus the
/// shard clock watermark, so replayed messages age bundles exactly as
/// the original ingest did.
struct ShardSnapshot {
  Timestamp clock = 0;
  EngineState state;

  ShardSnapshot() = default;
  ShardSnapshot(ShardSnapshot&&) = default;
  ShardSnapshot& operator=(ShardSnapshot&&) = default;
};

/// Full-service checkpoint image: every shard plus service-level
/// watermarks. `accepted` counts messages accepted by Service::Ingest
/// up to the checkpoint barrier (== sum of shard ingested counts, kept
/// explicitly so recovery can report progress without touching shards).
struct ServiceSnapshot {
  uint32_t num_shards = 0;
  Timestamp watermark = 0;
  uint64_t accepted = 0;
  std::vector<ShardSnapshot> shards;

  ServiceSnapshot() = default;
  ServiceSnapshot(ServiceSnapshot&&) = default;
  ServiceSnapshot& operator=(ServiceSnapshot&&) = default;
};

/// ServiceSnapshot with borrowed shard states: what a base checkpoint
/// encodes. Service::CheckpointLocked fills one from the quiesced live
/// engines (see EngineStateView for how long it stays valid).
struct ShardSnapshotView {
  Timestamp clock = 0;
  EngineStateView state;
};

struct ServiceSnapshotView {
  uint32_t num_shards = 0;
  Timestamp watermark = 0;
  uint64_t accepted = 0;
  std::vector<ShardSnapshotView> shards;

  ServiceSnapshotView() = default;
  /// Borrows an owning snapshot.
  ServiceSnapshotView(const ServiceSnapshot& snapshot);  // NOLINT
};

/// Appends the binary encoding of `state` to *dst. Bundles are framed
/// with the existing EncodeBundle record format, so the snapshot
/// inherits the pinned bundle wire format unchanged.
void EncodeEngineState(const EngineStateView& state, std::string* dst);

/// Decodes one EngineState from the front of *input. Every bundle record
/// passes DecodeBundle's checks, but stays encoded: the state's records
/// point into *input's bytes, which the caller keeps alive or hands to
/// `state->buffers`. Each count read off the input is checked against
/// the bytes left before anything is reserved for it.
Status DecodeEngineState(std::string_view* input, EngineState* state);

/// Serializes a full checkpoint image: magic + version header, the
/// shard states, and a masked crc32c trailer covering everything before
/// it. A snapshot that fails the CRC (torn or bit-rotted) is rejected
/// as a whole — checkpoints are atomic via write-temp-then-rename, so a
/// valid older snapshot is always the fallback. The decoded snapshot
/// takes `encoded` over: its shard states' records point into it.
void EncodeServiceSnapshot(const ServiceSnapshotView& snapshot,
                           std::string* dst);
StatusOr<ServiceSnapshot> DecodeServiceSnapshot(std::string encoded);

/// One shard's slice of an incremental checkpoint: the clock watermark
/// at the delta barrier plus the engine's changes since the previous
/// checkpoint in the chain.
struct ShardDelta {
  Timestamp clock = 0;
  EngineDelta delta;

  ShardDelta() = default;
  ShardDelta(ShardDelta&&) = default;
  ShardDelta& operator=(ShardDelta&&) = default;
};

/// An incremental checkpoint: everything that changed since checkpoint
/// `parent_seq`. Resolving base + deltas in sequence order via
/// ApplyServiceDelta reproduces the ServiceSnapshot a full checkpoint
/// would have written at the last delta's barrier.
struct ServiceDelta {
  /// Sequence of the checkpoint this delta extends (chain guard: a
  /// delta only applies on top of the image it was exported against).
  uint64_t parent_seq = 0;
  uint32_t num_shards = 0;
  Timestamp watermark = 0;
  uint64_t accepted = 0;
  std::vector<ShardDelta> shards;

  ServiceDelta() = default;
  ServiceDelta(ServiceDelta&&) = default;
  ServiceDelta& operator=(ServiceDelta&&) = default;
};

/// ServiceDelta with borrowed shard deltas: what an incremental
/// checkpoint encodes (same lifetime rule as ServiceSnapshotView).
struct ShardDeltaView {
  Timestamp clock = 0;
  EngineDeltaView delta;
};

struct ServiceDeltaView {
  uint64_t parent_seq = 0;
  uint32_t num_shards = 0;
  Timestamp watermark = 0;
  uint64_t accepted = 0;
  std::vector<ShardDeltaView> shards;

  ServiceDeltaView() = default;
  /// Borrows an owning delta.
  ServiceDeltaView(const ServiceDelta& delta);  // NOLINT
};

/// Appends the binary encoding of `delta` to *dst (exposed so the
/// format tests can pin it; the service-level framing below is what the
/// checkpoint files use). The decoder checks and borrows like
/// DecodeEngineState.
void EncodeEngineDelta(const EngineDeltaView& delta, std::string* dst);
Status DecodeEngineDelta(std::string_view* input, EngineDelta* delta);

/// Serializes an incremental checkpoint: "MPDL" magic + version header,
/// the parent link, per-shard clock + EngineDelta, and a masked crc32c
/// trailer. Same atomicity contract as EncodeServiceSnapshot — a delta
/// failing its CRC is rejected whole, and recovery falls back to the
/// valid chain prefix plus WAL replay (WAL segments are only collected
/// at full-checkpoint installs, so the tail is always still on disk).
/// The decoded delta takes `encoded` over, as DecodeServiceSnapshot does.
void EncodeServiceDelta(const ServiceDeltaView& delta, std::string* dst);
StatusOr<ServiceDelta> DecodeServiceDelta(std::string encoded);

/// Folds `delta` into `snapshot` in place. Fails on shard-count
/// mismatch or when any shard's term cursor does not line up with the
/// base image (a mis-chained or skipped delta).
Status ApplyServiceDelta(ServiceSnapshot* snapshot, ServiceDelta&& delta);

}  // namespace recovery
}  // namespace microprov

#endif  // MICROPROV_RECOVERY_SNAPSHOT_H_
