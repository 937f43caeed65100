#include "stream/message_codec.h"

#include "common/coding.h"
#include "common/string_util.h"

namespace microprov {

namespace {

std::string EscapeField(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string UnescapeField(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      switch (s[i + 1]) {
        case 't':
          out.push_back('\t');
          ++i;
          continue;
        case 'n':
          out.push_back('\n');
          ++i;
          continue;
        case 'r':
          out.push_back('\r');
          ++i;
          continue;
        case '\\':
          out.push_back('\\');
          ++i;
          continue;
        default:
          break;
      }
    }
    out.push_back(s[i]);
  }
  return out;
}

void PutStringVector(std::string* dst, const std::vector<std::string>& v) {
  PutVarint32(dst, static_cast<uint32_t>(v.size()));
  for (const auto& s : v) PutLengthPrefixed(dst, s);
}

/// Reads a string list's count and steps over its strings.
bool GetEncodedStrings(std::string_view* input, EncodedStrings* list) {
  if (!GetVarint32(input, &list->count)) return false;
  // Each element takes at least its one-byte length prefix: a larger
  // count is corrupt, and checking it first bounds a caller's reserve.
  if (list->count > input->size()) return false;
  const char* begin = input->data();
  for (uint32_t i = 0; i < list->count; ++i) {
    std::string_view piece;
    if (!GetLengthPrefixed(input, &piece)) return false;
  }
  list->bytes = std::string_view(begin, input->data() - begin);
  return true;
}

void CopyStrings(EncodedStrings list, std::vector<std::string>* out) {
  out->clear();
  out->reserve(list.count);
  std::string_view piece;
  while (list.Pop(&piece)) out->emplace_back(piece);
}

}  // namespace

std::string EncodeMessageTsv(const Message& msg) {
  std::string out;
  StringAppendF(&out, "%lld\t%lld\t%s\t%lld\t%s", (long long)msg.id,
                (long long)msg.date, EscapeField(msg.user).c_str(),
                (long long)msg.retweet_of_id,
                EscapeField(msg.text).c_str());
  return out;
}

Status DecodeMessageTsv(std::string_view line, Message* msg) {
  std::vector<std::string> fields = Split(line, '\t', /*keep_empty=*/true);
  if (fields.size() != 5) {
    return Status::Corruption(
        StringPrintf("TSV message line has %zu fields, want 5",
                     fields.size()));
  }
  *msg = Message();
  char* end = nullptr;
  msg->id = std::strtoll(fields[0].c_str(), &end, 10);
  if (end == fields[0].c_str()) {
    return Status::Corruption("bad message id: " + fields[0]);
  }
  msg->date = std::strtoll(fields[1].c_str(), &end, 10);
  if (end == fields[1].c_str()) {
    return Status::Corruption("bad message date: " + fields[1]);
  }
  msg->user = UnescapeField(fields[2]);
  msg->retweet_of_id = std::strtoll(fields[3].c_str(), &end, 10);
  msg->text = UnescapeField(fields[4]);
  ExtractIndicants(msg);
  if (msg->retweet_of_id != kInvalidMessageId) msg->is_retweet = true;
  return Status::OK();
}

void EncodeMessageBinary(const Message& msg, std::string* dst) {
  PutVarsint64(dst, msg.id);
  PutVarsint64(dst, msg.date);
  PutLengthPrefixed(dst, msg.user);
  PutLengthPrefixed(dst, msg.text);
  PutStringVector(dst, msg.hashtags);
  PutStringVector(dst, msg.urls);
  PutStringVector(dst, msg.keywords);
  PutVarint32(dst, msg.is_retweet ? 1 : 0);
  PutLengthPrefixed(dst, msg.retweet_of_user);
  PutVarsint64(dst, msg.retweet_of_id);
}

bool EncodedStrings::Pop(std::string_view* piece) {
  return GetLengthPrefixed(&bytes, piece);
}

Status ParseMessageBinary(std::string_view* input, MessageView* view) {
  uint32_t is_rt = 0;
  if (!GetVarsint64(input, &view->id) || !GetVarsint64(input, &view->date) ||
      !GetLengthPrefixed(input, &view->user) ||
      !GetLengthPrefixed(input, &view->text) ||
      !GetEncodedStrings(input, &view->hashtags) ||
      !GetEncodedStrings(input, &view->urls) ||
      !GetEncodedStrings(input, &view->keywords) ||
      !GetVarint32(input, &is_rt) ||
      !GetLengthPrefixed(input, &view->retweet_of_user) ||
      !GetVarsint64(input, &view->retweet_of_id)) {
    return Status::Corruption("truncated binary message");
  }
  view->is_retweet = is_rt != 0;
  return Status::OK();
}

void MessageFromView(const MessageView& view, Message* msg) {
  msg->id = view.id;
  msg->date = view.date;
  msg->user = std::string(view.user);
  msg->text = std::string(view.text);
  CopyStrings(view.hashtags, &msg->hashtags);
  CopyStrings(view.urls, &msg->urls);
  CopyStrings(view.keywords, &msg->keywords);
  msg->is_retweet = view.is_retweet;
  msg->retweet_of_user = std::string(view.retweet_of_user);
  msg->retweet_of_id = view.retweet_of_id;
}

Status DecodeMessageBinary(std::string_view* input, Message* msg) {
  *msg = Message();
  MessageView view;
  MICROPROV_RETURN_IF_ERROR(ParseMessageBinary(input, &view));
  MessageFromView(view, msg);
  return Status::OK();
}

}  // namespace microprov
