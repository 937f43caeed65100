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

/// Decodes one binary message from the front of `*input`.
Status DecodeMessageBinary(std::string_view* input, Message* msg);

/// Consumes one binary message from the front of `*input`, failing
/// exactly where DecodeMessageBinary would, without copying any field.
Status SkipMessageBinary(std::string_view* input);

}  // namespace microprov

#endif  // MICROPROV_STREAM_MESSAGE_CODEC_H_
