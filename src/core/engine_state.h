#ifndef MICROPROV_CORE_ENGINE_STATE_H_
#define MICROPROV_CORE_ENGINE_STATE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/bundle.h"
#include "core/indicant.h"
#include "core/pool.h"

namespace microprov {

/// One checkpointed bundle, still encoded: the id from its record header
/// and its EncodeBundle bytes, which live in a buffer the owning
/// EngineState or EngineDelta holds. The checkpoint decoders check every
/// record as DecodeBundle would, so ImportState decodes each surviving
/// record once, straight onto the engine's dictionary.
struct BundleRecord {
  BundleId id = 0;
  std::string_view bytes;
};

/// The buffers a decoded state's records point into. Shared: every
/// shard of one checkpoint file holds the file, and a resolved chain
/// holds every file one of its records came from.
using RecordBuffers = std::vector<std::shared_ptr<const std::string>>;

/// A detached, self-contained copy of one ProvenanceEngine's durable
/// state — everything a checkpoint must capture so that replaying the
/// post-checkpoint message stream reproduces the live engine exactly.
/// This is what a checkpoint decodes into and ImportState restores
/// from; the write path encodes an EngineStateView of the live engine
/// instead, and both encode to the same bytes.
///
/// What is captured: the interning dictionary (surface forms in TermId
/// order, so re-interning in order reproduces identical ids), every
/// live bundle as its encoded record, the pool's id allocator position
/// and lifecycle counters, and the ingested-message count. What is NOT
/// captured: the summary index — it is derived state, rebuilt from the
/// bundles on import — and evaluation-only artifacts (edge log, stage
/// timers, metrics), which restart empty.
struct EngineState {
  EngineState() = default;
  EngineState(EngineState&&) = default;
  EngineState& operator=(EngineState&&) = default;
  EngineState(const EngineState&) = delete;
  EngineState& operator=(const EngineState&) = delete;

  uint64_t messages_ingested = 0;
  /// Next id the pool's Create() would hand out.
  BundleId next_bundle_id = 1;
  PoolStats pool_stats;
  /// Surface forms per IndicantType, position == TermId.
  std::vector<std::string> terms[kNumIndicantTypes];
  /// Live bundles' records sorted by ascending id.
  std::vector<BundleRecord> bundles;
  /// What `bundles` points into (empty when the decoder's caller keeps
  /// the bytes alive itself).
  RecordBuffers buffers;
};

/// The changes to an EngineState since a delta cursor was last reset:
/// what applying one incremental checkpoint does to the state it
/// extends. Scalars are absolute (cheap and idempotent); dictionary
/// terms are append-only so only the new tail travels; bundles are
/// upserts (every bundle touched since the cursor) plus a removal list.
/// Applying a delta chain base..N in order reproduces the EngineState a
/// full export at N would have produced. Like EngineState, this is the
/// decoded form; the write path encodes an EngineDeltaView.
struct EngineDelta {
  EngineDelta() = default;
  EngineDelta(EngineDelta&&) = default;
  EngineDelta& operator=(EngineDelta&&) = default;
  EngineDelta(const EngineDelta&) = delete;
  EngineDelta& operator=(const EngineDelta&) = delete;

  uint64_t messages_ingested = 0;
  BundleId next_bundle_id = 1;
  PoolStats pool_stats;
  /// Term count per IndicantType at the cursor this delta starts from;
  /// apply-time guard against mis-chained deltas.
  uint32_t base_terms[kNumIndicantTypes] = {};
  /// Terms interned since the cursor, per IndicantType, in TermId order
  /// (TermIds are dense and append-only, so appending these to the base
  /// state's term lists reproduces the full id space).
  std::vector<std::string> new_terms[kNumIndicantTypes];
  /// Bundles that left the pool since the cursor (refinement eviction,
  /// archive dump, drain), ascending by id.
  std::vector<BundleId> removed;
  /// Records of the bundles created or touched since the cursor,
  /// ascending by id (upserts over the base state).
  std::vector<BundleRecord> bundles;
  RecordBuffers buffers;
};

/// EngineState's fields borrowed rather than owned: what a checkpoint
/// encodes. ProvenanceEngine::ExportState fills one straight from the
/// live pool and dictionary, so writing a checkpoint copies no bundle.
/// Every pointer and string_view points into its source and is valid
/// only while the source is unchanged — for a live engine, until its
/// next Ingest, Drain or ImportState.
struct EngineStateView {
  EngineStateView() = default;
  /// Borrows a decoded state, whose records re-encode verbatim.
  EngineStateView(const EngineState& state);  // NOLINT: implicit view

  uint64_t messages_ingested = 0;
  BundleId next_bundle_id = 1;
  PoolStats pool_stats;
  /// Surface forms per IndicantType, position == TermId.
  std::vector<std::string_view> terms[kNumIndicantTypes];
  /// The bundles sorted by ascending id: live bundles (a live engine's
  /// view) or the records of a decoded state, written verbatim. One of
  /// the two is empty.
  std::vector<const Bundle*> bundles;
  std::vector<std::string_view> records;
};

/// EngineDelta's fields borrowed rather than owned (see EngineStateView
/// for the lifetime rule). `removed` is held by value: the ids are
/// consumed from the engine's tracking set when the delta is captured.
struct EngineDeltaView {
  EngineDeltaView() = default;
  EngineDeltaView(const EngineDelta& delta);  // NOLINT: implicit view

  uint64_t messages_ingested = 0;
  BundleId next_bundle_id = 1;
  PoolStats pool_stats;
  uint32_t base_terms[kNumIndicantTypes] = {};
  std::vector<std::string_view> new_terms[kNumIndicantTypes];
  std::vector<BundleId> removed;
  /// Bundles created or touched since the cursor, ascending by id: live
  /// bundles or a decoded delta's records, as in EngineStateView.
  std::vector<const Bundle*> bundles;
  std::vector<std::string_view> records;
};

/// Folds `delta` into `state` in place: appends the new dictionary
/// terms, drops removed records, upserts the touched records (keeping
/// the ascending-id order ExportState guarantees), takes over the
/// delta's buffers, and overwrites the scalar counters. Fails if the
/// delta's term tail does not line up with the base state's term
/// counts.
Status ApplyEngineDelta(EngineState* state, EngineDelta&& delta);

}  // namespace microprov

#endif  // MICROPROV_CORE_ENGINE_STATE_H_
