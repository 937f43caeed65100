#include "recovery/snapshot.h"

#include <memory>

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
                   const std::vector<std::string_view>& records,
                   std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(bundles.size() + records.size()));
  std::string encoded;
  for (const Bundle* bundle : bundles) {
    encoded.clear();
    EncodeBundle(*bundle, &encoded);
    PutLengthPrefixed(dst, encoded);
  }
  for (std::string_view record : records) PutLengthPrefixed(dst, record);
}

/// Reads the count of a list whose items each take at least one byte of
/// *input. A count past the bytes left is corrupt, so what a decoder
/// reserves for a count stays within a multiple of the input's size.
bool GetCount(std::string_view* input, uint32_t* count) {
  return GetVarint32(input, count) && *count <= input->size();
}

Status DecodeTerms(std::string_view* input, const char* what,
                   std::vector<std::string>* terms) {
  uint32_t count = 0;
  if (!GetCount(input, &count)) {
    return Status::Corruption(std::string(what) + ": bad term count");
  }
  terms->clear();
  terms->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view term;
    if (!GetLengthPrefixed(input, &term)) {
      return Status::Corruption(std::string(what) + ": truncated term");
    }
    terms->emplace_back(term);
  }
  return Status::OK();
}

/// Checks every bundle record as DecodeBundle would and keeps it
/// encoded, borrowing *input's bytes.
Status DecodeBundleRecords(std::string_view* input, const char* what,
                           std::vector<BundleRecord>* records) {
  uint32_t count = 0;
  if (!GetCount(input, &count)) {
    return Status::Corruption(std::string(what) + ": bad bundle count");
  }
  records->clear();
  records->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    BundleRecord record;
    if (!GetLengthPrefixed(input, &record.bytes)) {
      return Status::Corruption(std::string(what) + ": truncated bundle");
    }
    MICROPROV_RETURN_IF_ERROR(CheckBundleRecord(record.bytes, &record.id));
    records->push_back(record);
  }
  return Status::OK();
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
  EncodeBundles(state.bundles, state.records, dst);
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
    MICROPROV_RETURN_IF_ERROR(
        DecodeTerms(input, "engine state", &state->terms[t]));
  }
  return DecodeBundleRecords(input, "engine state", &state->bundles);
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

StatusOr<ServiceSnapshot> DecodeServiceSnapshot(std::string encoded_bytes) {
  auto buffer =
      std::make_shared<const std::string>(std::move(encoded_bytes));
  const std::string_view encoded(*buffer);
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
  if (snapshot.num_shards > body.size()) {
    return Status::Corruption("snapshot: bad shard count");
  }
  snapshot.shards.reserve(snapshot.num_shards);
  for (uint32_t i = 0; i < snapshot.num_shards; ++i) {
    ShardSnapshot shard;
    if (!GetVarsint64(&body, &shard.clock)) {
      return Status::Corruption("snapshot: truncated shard clock");
    }
    MICROPROV_RETURN_IF_ERROR(DecodeEngineState(&body, &shard.state));
    shard.state.buffers.push_back(buffer);
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
  EncodeBundles(delta.bundles, delta.records, dst);
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
    if (!GetVarint32(input, &delta->base_terms[t])) {
      return Status::Corruption("engine delta: truncated term cursor");
    }
    MICROPROV_RETURN_IF_ERROR(
        DecodeTerms(input, "engine delta", &delta->new_terms[t]));
  }
  uint32_t num_removed = 0;
  if (!GetCount(input, &num_removed)) {
    return Status::Corruption("engine delta: bad removal count");
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
  return DecodeBundleRecords(input, "engine delta", &delta->bundles);
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

StatusOr<ServiceDelta> DecodeServiceDelta(std::string encoded_bytes) {
  auto buffer =
      std::make_shared<const std::string>(std::move(encoded_bytes));
  const std::string_view encoded(*buffer);
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
  if (delta.num_shards > body.size()) {
    return Status::Corruption("delta: bad shard count");
  }
  delta.shards.reserve(delta.num_shards);
  for (uint32_t i = 0; i < delta.num_shards; ++i) {
    ShardDelta shard;
    if (!GetVarsint64(&body, &shard.clock)) {
      return Status::Corruption("delta: truncated shard clock");
    }
    MICROPROV_RETURN_IF_ERROR(DecodeEngineDelta(&body, &shard.delta));
    shard.delta.buffers.push_back(buffer);
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
