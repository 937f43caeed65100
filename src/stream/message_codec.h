#ifndef MICROPROV_STREAM_MESSAGE_CODEC_H_
#define MICROPROV_STREAM_MESSAGE_CODEC_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "stream/message.h"

namespace microprov {

// Two codecs for messages:
//  * a TSV line codec for human-inspectable dataset files
//    (id \t date \t user \t rt_of_id \t text; indicants are re-derived on
//    load, which keeps files compact and exercises the parser), and
//  * a compact binary codec (varint fields, length-prefixed strings,
//    explicit indicants) used by the storage layer.

/// Renders one TSV line (no trailing newline). Tabs/newlines inside the
/// text are escaped as \t, \n, \\.
std::string EncodeMessageTsv(const Message& msg);

/// Parses a TSV line produced by EncodeMessageTsv. Extracts indicants from
/// the text field.
Status DecodeMessageTsv(std::string_view line, Message* msg);

/// Appends the binary encoding of `msg` to `*dst`.
void EncodeMessageBinary(const Message& msg, std::string* dst);

/// A string list of the binary layout, already checked by
/// ParseMessageBinary: `bytes` holds exactly its length-prefixed strings.
struct EncodedStrings {
  uint32_t count = 0;
  std::string_view bytes;

  /// Moves the first string into *piece; false once none is left.
  bool Pop(std::string_view* piece);
};

/// One binary message, every field a view into its encoding.
struct MessageView {
  MessageId id = kInvalidMessageId;
  Timestamp date = 0;
  std::string_view user;
  std::string_view text;
  EncodedStrings hashtags;
  EncodedStrings urls;
  EncodedStrings keywords;
  bool is_retweet = false;
  std::string_view retweet_of_user;
  MessageId retweet_of_id = kInvalidMessageId;
};

/// The one parser of the binary layout: consumes one message from the
/// front of `*input`, checks every field and copies none.
Status ParseMessageBinary(std::string_view* input, MessageView* view);

/// Copies a parsed message's fields, indicants included, into a fresh
/// *msg.
void MessageFromView(const MessageView& view, Message* msg);

/// Decodes one binary message from the front of `*input`.
Status DecodeMessageBinary(std::string_view* input, Message* msg);

}  // namespace microprov

#endif  // MICROPROV_STREAM_MESSAGE_CODEC_H_
