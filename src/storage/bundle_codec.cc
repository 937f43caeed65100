#include "storage/bundle_codec.h"

#include <bit>

#include "common/coding.h"
#include "stream/message_codec.h"

namespace microprov {

namespace {
constexpr uint32_t kBundleCodecVersion = 1;
}  // namespace

Status ReadBundleRecordHeader(std::string_view* encoded,
                              BundleRecordHeader* header) {
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

Status ReadBundleRecordEntry(std::string_view* encoded,
                             BundleEntryView* entry) {
  MICROPROV_RETURN_IF_ERROR(ParseMessageBinary(encoded, &entry->msg));
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
  BundleRecordHeader header;
  MICROPROV_RETURN_IF_ERROR(ReadBundleRecordHeader(&encoded, &header));
  auto bundle = std::make_unique<Bundle>(header.id, dict);
  BundleEntryView entry;
  for (uint32_t i = 0; i < header.count; ++i) {
    MICROPROV_RETURN_IF_ERROR(ReadBundleRecordEntry(&encoded, &entry));
    Message msg;
    MessageFromView(entry.msg, &msg);
    bundle->AddMessage(std::move(msg), entry.parent, entry.conn_type,
                       entry.conn_score);
  }
  if (header.closed) bundle->Close();
  return bundle;
}

Status CheckBundleRecord(std::string_view encoded, BundleId* id) {
  BundleRecordHeader header;
  MICROPROV_RETURN_IF_ERROR(ReadBundleRecordHeader(&encoded, &header));
  BundleEntryView entry;
  for (uint32_t i = 0; i < header.count; ++i) {
    MICROPROV_RETURN_IF_ERROR(ReadBundleRecordEntry(&encoded, &entry));
  }
  *id = header.id;
  return Status::OK();
}

}  // namespace microprov
