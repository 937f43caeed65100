#include "storage/bundle_codec.h"

#include <bit>

#include "common/coding.h"
#include "stream/message_codec.h"

namespace microprov {

namespace {
constexpr uint32_t kBundleCodecVersion = 1;

struct RecordHeader {
  BundleId id = 0;
  bool closed = false;
  uint32_t count = 0;
};

Status ReadHeader(std::string_view* encoded, RecordHeader* header) {
  uint32_t version = 0;
  uint32_t closed = 0;
  if (!GetVarint32(encoded, &version) || version != kBundleCodecVersion) {
    return Status::Corruption("bad bundle codec version");
  }
  if (!GetVarint64(encoded, &header->id) ||
      !GetVarint32(encoded, &closed) ||
      !GetVarint32(encoded, &header->count)) {
    return Status::Corruption("truncated bundle header");
  }
  header->closed = closed != 0;
  return Status::OK();
}

/// One member entry: its message (decoded into entry->msg, or only
/// checked when `decode_message` is false), then its connection.
Status ReadEntry(std::string_view* encoded, bool decode_message,
                 BundleMessage* entry) {
  MICROPROV_RETURN_IF_ERROR(decode_message
                                ? DecodeMessageBinary(encoded, &entry->msg)
                                : SkipMessageBinary(encoded));
  int64_t parent = 0;
  uint32_t conn_type = 0;
  uint32_t score_bits = 0;
  if (!GetVarsint64(encoded, &parent) ||
      !GetVarint32(encoded, &conn_type) ||
      !GetFixed32(encoded, &score_bits)) {
    return Status::Corruption("truncated bundle message entry");
  }
  if (conn_type > static_cast<uint32_t>(ConnectionType::kText)) {
    return Status::Corruption("bad connection type");
  }
  entry->parent = parent;
  entry->conn_type = static_cast<ConnectionType>(conn_type);
  entry->conn_score = std::bit_cast<float>(score_bits);
  return Status::OK();
}

}  // namespace

void EncodeBundle(const Bundle& bundle, std::string* dst) {
  PutVarint32(dst, kBundleCodecVersion);
  PutVarint64(dst, bundle.id());
  PutVarint32(dst, bundle.closed() ? 1 : 0);
  PutVarint32(dst, static_cast<uint32_t>(bundle.size()));
  for (const BundleMessage& bm : bundle.messages()) {
    EncodeMessageBinary(bm.msg, dst);
    PutVarsint64(dst, bm.parent);
    PutVarint32(dst, static_cast<uint32_t>(bm.conn_type));
    PutFixed32(dst, std::bit_cast<uint32_t>(bm.conn_score));
  }
}

StatusOr<std::unique_ptr<Bundle>> DecodeBundle(std::string_view encoded,
                                               IndicantDictionary* dict) {
  RecordHeader header;
  MICROPROV_RETURN_IF_ERROR(ReadHeader(&encoded, &header));
  auto bundle = std::make_unique<Bundle>(header.id, dict);
  for (uint32_t i = 0; i < header.count; ++i) {
    BundleMessage entry;
    MICROPROV_RETURN_IF_ERROR(ReadEntry(&encoded, true, &entry));
    bundle->AddMessage(std::move(entry.msg), entry.parent, entry.conn_type,
                       entry.conn_score);
  }
  if (header.closed) bundle->Close();
  return bundle;
}

Status CheckBundleRecord(std::string_view encoded, BundleId* id) {
  RecordHeader header;
  MICROPROV_RETURN_IF_ERROR(ReadHeader(&encoded, &header));
  BundleMessage entry;
  for (uint32_t i = 0; i < header.count; ++i) {
    MICROPROV_RETURN_IF_ERROR(ReadEntry(&encoded, false, &entry));
  }
  *id = header.id;
  return Status::OK();
}

}  // namespace microprov
