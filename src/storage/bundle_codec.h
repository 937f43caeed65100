#ifndef MICROPROV_STORAGE_BUNDLE_CODEC_H_
#define MICROPROV_STORAGE_BUNDLE_CODEC_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/statusor.h"
#include "core/bundle.h"
#include "stream/message_codec.h"

namespace microprov {

/// Serializes a bundle (metadata + every member message with its
/// provenance connection) into a compact binary record for the bundle
/// store's log files.
void EncodeBundle(const Bundle& bundle, std::string* dst);

/// Rebuilds a bundle from EncodeBundle output, interning against `dict`
/// (nullptr for a private dictionary; a shared one must outlive the
/// bundle). Indicant summaries and time ranges are reconstructed by
/// replaying AddMessage, so a decoded bundle is behaviorally identical
/// to the original.
StatusOr<std::unique_ptr<Bundle>> DecodeBundle(
    std::string_view encoded, IndicantDictionary* dict = nullptr);

/// The record layout, read in place by one parser (the two functions
/// below) for DecodeBundle, CheckBundleRecord and the archive's term
/// index: a header, then `count` member entries.
struct BundleRecordHeader {
  BundleId id = 0;
  bool closed = false;
  uint32_t count = 0;
};

/// One member entry: its message and its provenance connection.
struct BundleEntryView {
  MessageView msg;
  MessageId parent = kInvalidMessageId;
  ConnectionType conn_type = ConnectionType::kText;
  float conn_score = 0.0f;
};

/// Reads the header from the front of `*encoded`.
Status ReadBundleRecordHeader(std::string_view* encoded,
                              BundleRecordHeader* header);

/// Reads one member entry from the front of `*encoded`, checking its
/// message and connection type; copies nothing.
Status ReadBundleRecordEntry(std::string_view* encoded,
                             BundleEntryView* entry);

/// Runs every check DecodeBundle runs on `encoded` (version, header,
/// each message, connection type) without building a bundle or copying
/// a field, and sets *id from the record header.
Status CheckBundleRecord(std::string_view encoded, BundleId* id);

}  // namespace microprov

#endif  // MICROPROV_STORAGE_BUNDLE_CODEC_H_
