#include "recovery/snapshot.h"

#include "common/coding.h"
#include "common/crc32c.h"
#include "storage/bundle_codec.h"

namespace microprov {
namespace recovery {

namespace {
// "MPSN" little-endian: microprov snapshot.
constexpr uint32_t kSnapshotMagic = 0x4e53504d;
constexpr uint32_t kSnapshotVersion = 1;
constexpr uint32_t kEngineStateVersion = 1;
// "MPDL" little-endian: microprov delta.
constexpr uint32_t kDeltaMagic = 0x4c44504d;
constexpr uint32_t kDeltaVersion = 1;
constexpr uint32_t kEngineDeltaVersion = 1;
}  // namespace

ServiceSnapshotView::ServiceSnapshotView(const ServiceSnapshot& snapshot)
    : num_shards(snapshot.num_shards),
      watermark(snapshot.watermark),
      accepted(snapshot.accepted) {
  shards.reserve(snapshot.shards.size());
  for (const ShardSnapshot& shard : snapshot.shards) {
    shards.push_back(ShardSnapshotView{shard.clock, shard.state});
  }
}

ServiceDeltaView::ServiceDeltaView(const ServiceDelta& delta)
    : parent_seq(delta.parent_seq),
      num_shards(delta.num_shards),
      watermark(delta.watermark),
      accepted(delta.accepted) {
  shards.reserve(delta.shards.size());
  for (const ShardDelta& shard : delta.shards) {
    shards.push_back(ShardDeltaView{shard.clock, shard.delta});
  }
}

namespace {

void EncodeBundles(const std::vector<const Bundle*>& bundles,
                   std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(bundles.size()));
  std::string encoded;
  for (const Bundle* bundle : bundles) {
    encoded.clear();
    EncodeBundle(*bundle, &encoded);
    PutLengthPrefixed(dst, encoded);
  }
}

}  // namespace

void EncodeEngineState(const EngineStateView& state, std::string* dst) {
  PutVarint32(dst, kEngineStateVersion);
  PutVarint64(dst, state.messages_ingested);
  PutVarint64(dst, state.next_bundle_id);
  PutVarint64(dst, state.pool_stats.bundles_created);
  PutVarint64(dst, state.pool_stats.bundles_deleted_tiny);
  PutVarint64(dst, state.pool_stats.bundles_dumped_closed);
  PutVarint64(dst, state.pool_stats.bundles_evicted_ranked);
  PutVarint64(dst, state.pool_stats.refinement_runs);
  PutVarint64(dst, state.pool_stats.bundles_closed);
  for (int t = 0; t < kNumIndicantTypes; ++t) {
    PutVarint32(dst, static_cast<uint32_t>(state.terms[t].size()));
    for (std::string_view term : state.terms[t]) {
      PutLengthPrefixed(dst, term);
    }
  }
  EncodeBundles(state.bundles, dst);
}

Status DecodeEngineState(std::string_view* input, EngineState* state) {
  uint32_t version = 0;
  if (!GetVarint32(input, &version)) {
    return Status::Corruption("engine state: truncated version");
  }
  if (version != kEngineStateVersion) {
    return Status::Corruption("engine state: unknown version");
  }
  uint64_t next_id = 0;
  if (!GetVarint64(input, &state->messages_ingested) ||
      !GetVarint64(input, &next_id) ||
      !GetVarint64(input, &state->pool_stats.bundles_created) ||
      !GetVarint64(input, &state->pool_stats.bundles_deleted_tiny) ||
      !GetVarint64(input, &state->pool_stats.bundles_dumped_closed) ||
      !GetVarint64(input, &state->pool_stats.bundles_evicted_ranked) ||
      !GetVarint64(input, &state->pool_stats.refinement_runs) ||
      !GetVarint64(input, &state->pool_stats.bundles_closed)) {
    return Status::Corruption("engine state: truncated header");
  }
  state->next_bundle_id = next_id;
  for (int t = 0; t < kNumIndicantTypes; ++t) {
    uint32_t count = 0;
    if (!GetVarint32(input, &count)) {
      return Status::Corruption("engine state: truncated term count");
    }
    state->terms[t].clear();
    state->terms[t].reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      std::string_view term;
      if (!GetLengthPrefixed(input, &term)) {
        return Status::Corruption("engine state: truncated term");
      }
      state->terms[t].emplace_back(term);
    }
  }
  uint32_t num_bundles = 0;
  if (!GetVarint32(input, &num_bundles)) {
    return Status::Corruption("engine state: truncated bundle count");
  }
  state->bundles.clear();
  state->bundles.reserve(num_bundles);
  for (uint32_t i = 0; i < num_bundles; ++i) {
    std::string_view encoded;
    if (!GetLengthPrefixed(input, &encoded)) {
      return Status::Corruption("engine state: truncated bundle");
    }
    auto bundle_or = DecodeBundle(encoded);
    if (!bundle_or.ok()) return bundle_or.status();
    state->bundles.push_back(std::move(*bundle_or));
  }
  return Status::OK();
}

void EncodeServiceSnapshot(const ServiceSnapshotView& snapshot,
                           std::string* dst) {
  const size_t start = dst->size();
  PutFixed32(dst, kSnapshotMagic);
  PutVarint32(dst, kSnapshotVersion);
  PutVarint32(dst, snapshot.num_shards);
  PutVarsint64(dst, snapshot.watermark);
  PutVarint64(dst, snapshot.accepted);
  for (const ShardSnapshotView& shard : snapshot.shards) {
    PutVarsint64(dst, shard.clock);
    EncodeEngineState(shard.state, dst);
  }
  const uint32_t crc = crc32c::Value(
      std::string_view(dst->data() + start, dst->size() - start));
  PutFixed32(dst, crc32c::Mask(crc));
}

StatusOr<ServiceSnapshot> DecodeServiceSnapshot(std::string_view encoded) {
  if (encoded.size() < sizeof(uint32_t) * 2) {
    return Status::Corruption("snapshot: too short");
  }
  std::string_view body = encoded.substr(0, encoded.size() - 4);
  std::string_view trailer = encoded.substr(encoded.size() - 4);
  uint32_t masked_crc = 0;
  if (!GetFixed32(&trailer, &masked_crc)) {
    return Status::Corruption("snapshot: bad trailer");
  }
  if (crc32c::Unmask(masked_crc) != crc32c::Value(body)) {
    return Status::Corruption("snapshot: crc mismatch");
  }
  uint32_t magic = 0;
  uint32_t version = 0;
  ServiceSnapshot snapshot;
  if (!GetFixed32(&body, &magic) || magic != kSnapshotMagic) {
    return Status::Corruption("snapshot: bad magic");
  }
  if (!GetVarint32(&body, &version) || version != kSnapshotVersion) {
    return Status::Corruption("snapshot: unknown version");
  }
  if (!GetVarint32(&body, &snapshot.num_shards) ||
      !GetVarsint64(&body, &snapshot.watermark) ||
      !GetVarint64(&body, &snapshot.accepted)) {
    return Status::Corruption("snapshot: truncated header");
  }
  snapshot.shards.reserve(snapshot.num_shards);
  for (uint32_t i = 0; i < snapshot.num_shards; ++i) {
    ShardSnapshot shard;
    if (!GetVarsint64(&body, &shard.clock)) {
      return Status::Corruption("snapshot: truncated shard clock");
    }
    MICROPROV_RETURN_IF_ERROR(DecodeEngineState(&body, &shard.state));
    snapshot.shards.push_back(std::move(shard));
  }
  if (!body.empty()) {
    return Status::Corruption("snapshot: trailing bytes");
  }
  return snapshot;
}

void EncodeEngineDelta(const EngineDeltaView& delta, std::string* dst) {
  PutVarint32(dst, kEngineDeltaVersion);
  PutVarint64(dst, delta.messages_ingested);
  PutVarint64(dst, delta.next_bundle_id);
  PutVarint64(dst, delta.pool_stats.bundles_created);
  PutVarint64(dst, delta.pool_stats.bundles_deleted_tiny);
  PutVarint64(dst, delta.pool_stats.bundles_dumped_closed);
  PutVarint64(dst, delta.pool_stats.bundles_evicted_ranked);
  PutVarint64(dst, delta.pool_stats.refinement_runs);
  PutVarint64(dst, delta.pool_stats.bundles_closed);
  for (int t = 0; t < kNumIndicantTypes; ++t) {
    PutVarint32(dst, delta.base_terms[t]);
    PutVarint32(dst, static_cast<uint32_t>(delta.new_terms[t].size()));
    for (std::string_view term : delta.new_terms[t]) {
      PutLengthPrefixed(dst, term);
    }
  }
  PutVarint32(dst, static_cast<uint32_t>(delta.removed.size()));
  for (BundleId id : delta.removed) PutVarint64(dst, id);
  EncodeBundles(delta.bundles, dst);
}

Status DecodeEngineDelta(std::string_view* input, EngineDelta* delta) {
  uint32_t version = 0;
  if (!GetVarint32(input, &version)) {
    return Status::Corruption("engine delta: truncated version");
  }
  if (version != kEngineDeltaVersion) {
    return Status::Corruption("engine delta: unknown version");
  }
  uint64_t next_id = 0;
  if (!GetVarint64(input, &delta->messages_ingested) ||
      !GetVarint64(input, &next_id) ||
      !GetVarint64(input, &delta->pool_stats.bundles_created) ||
      !GetVarint64(input, &delta->pool_stats.bundles_deleted_tiny) ||
      !GetVarint64(input, &delta->pool_stats.bundles_dumped_closed) ||
      !GetVarint64(input, &delta->pool_stats.bundles_evicted_ranked) ||
      !GetVarint64(input, &delta->pool_stats.refinement_runs) ||
      !GetVarint64(input, &delta->pool_stats.bundles_closed)) {
    return Status::Corruption("engine delta: truncated header");
  }
  delta->next_bundle_id = next_id;
  for (int t = 0; t < kNumIndicantTypes; ++t) {
    uint32_t count = 0;
    if (!GetVarint32(input, &delta->base_terms[t]) ||
        !GetVarint32(input, &count)) {
      return Status::Corruption("engine delta: truncated term count");
    }
    delta->new_terms[t].clear();
    delta->new_terms[t].reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      std::string_view term;
      if (!GetLengthPrefixed(input, &term)) {
        return Status::Corruption("engine delta: truncated term");
      }
      delta->new_terms[t].emplace_back(term);
    }
  }
  uint32_t num_removed = 0;
  if (!GetVarint32(input, &num_removed)) {
    return Status::Corruption("engine delta: truncated removal count");
  }
  delta->removed.clear();
  delta->removed.reserve(num_removed);
  for (uint32_t i = 0; i < num_removed; ++i) {
    uint64_t id = 0;
    if (!GetVarint64(input, &id)) {
      return Status::Corruption("engine delta: truncated removal id");
    }
    delta->removed.push_back(id);
  }
  uint32_t num_bundles = 0;
  if (!GetVarint32(input, &num_bundles)) {
    return Status::Corruption("engine delta: truncated bundle count");
  }
  delta->bundles.clear();
  delta->bundles.reserve(num_bundles);
  for (uint32_t i = 0; i < num_bundles; ++i) {
    std::string_view encoded;
    if (!GetLengthPrefixed(input, &encoded)) {
      return Status::Corruption("engine delta: truncated bundle");
    }
    auto bundle_or = DecodeBundle(encoded);
    if (!bundle_or.ok()) return bundle_or.status();
    delta->bundles.push_back(std::move(*bundle_or));
  }
  return Status::OK();
}

void EncodeServiceDelta(const ServiceDeltaView& delta, std::string* dst) {
  const size_t start = dst->size();
  PutFixed32(dst, kDeltaMagic);
  PutVarint32(dst, kDeltaVersion);
  PutVarint64(dst, delta.parent_seq);
  PutVarint32(dst, delta.num_shards);
  PutVarsint64(dst, delta.watermark);
  PutVarint64(dst, delta.accepted);
  for (const ShardDeltaView& shard : delta.shards) {
    PutVarsint64(dst, shard.clock);
    EncodeEngineDelta(shard.delta, dst);
  }
  const uint32_t crc = crc32c::Value(
      std::string_view(dst->data() + start, dst->size() - start));
  PutFixed32(dst, crc32c::Mask(crc));
}

StatusOr<ServiceDelta> DecodeServiceDelta(std::string_view encoded) {
  if (encoded.size() < sizeof(uint32_t) * 2) {
    return Status::Corruption("delta: too short");
  }
  std::string_view body = encoded.substr(0, encoded.size() - 4);
  std::string_view trailer = encoded.substr(encoded.size() - 4);
  uint32_t masked_crc = 0;
  if (!GetFixed32(&trailer, &masked_crc)) {
    return Status::Corruption("delta: bad trailer");
  }
  if (crc32c::Unmask(masked_crc) != crc32c::Value(body)) {
    return Status::Corruption("delta: crc mismatch");
  }
  uint32_t magic = 0;
  uint32_t version = 0;
  ServiceDelta delta;
  if (!GetFixed32(&body, &magic) || magic != kDeltaMagic) {
    return Status::Corruption("delta: bad magic");
  }
  if (!GetVarint32(&body, &version) || version != kDeltaVersion) {
    return Status::Corruption("delta: unknown version");
  }
  if (!GetVarint64(&body, &delta.parent_seq) ||
      !GetVarint32(&body, &delta.num_shards) ||
      !GetVarsint64(&body, &delta.watermark) ||
      !GetVarint64(&body, &delta.accepted)) {
    return Status::Corruption("delta: truncated header");
  }
  delta.shards.reserve(delta.num_shards);
  for (uint32_t i = 0; i < delta.num_shards; ++i) {
    ShardDelta shard;
    if (!GetVarsint64(&body, &shard.clock)) {
      return Status::Corruption("delta: truncated shard clock");
    }
    MICROPROV_RETURN_IF_ERROR(DecodeEngineDelta(&body, &shard.delta));
    delta.shards.push_back(std::move(shard));
  }
  if (!body.empty()) {
    return Status::Corruption("delta: trailing bytes");
  }
  return delta;
}

Status ApplyServiceDelta(ServiceSnapshot* snapshot, ServiceDelta&& delta) {
  if (snapshot->num_shards != delta.num_shards ||
      snapshot->shards.size() != delta.shards.size()) {
    return Status::Corruption("delta: shard count mismatch");
  }
  for (size_t i = 0; i < delta.shards.size(); ++i) {
    snapshot->shards[i].clock = delta.shards[i].clock;
    MICROPROV_RETURN_IF_ERROR(ApplyEngineDelta(
        &snapshot->shards[i].state, std::move(delta.shards[i].delta)));
  }
  snapshot->watermark = delta.watermark;
  snapshot->accepted = delta.accepted;
  return Status::OK();
}

}  // namespace recovery
}  // namespace microprov
