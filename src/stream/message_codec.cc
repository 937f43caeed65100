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

/// Reads a string list into *v, or only checks it when `v` is null.
bool GetStringVector(std::string_view* input,
                     std::vector<std::string>* v) {
  uint32_t n = 0;
  if (!GetVarint32(input, &n)) return false;
  // Each element takes at least its one-byte length prefix: a larger
  // count is corrupt, and checking it first bounds the reserve.
  if (n > input->size()) return false;
  if (v != nullptr) {
    v->clear();
    v->reserve(n);
  }
  for (uint32_t i = 0; i < n; ++i) {
    std::string_view piece;
    if (!GetLengthPrefixed(input, &piece)) return false;
    if (v != nullptr) v->emplace_back(piece);
  }
  return true;
}

/// The binary layout, parsed once for DecodeMessageBinary and
/// SkipMessageBinary: with a null `msg` every field is still read and
/// checked, and nothing is copied.
bool ParseMessageBinary(std::string_view* input, Message* msg) {
  int64_t id = 0;
  int64_t date = 0;
  int64_t retweet_of_id = 0;
  std::string_view user, text, rt_user;
  uint32_t is_rt = 0;
  if (!GetVarsint64(input, &id) || !GetVarsint64(input, &date) ||
      !GetLengthPrefixed(input, &user) || !GetLengthPrefixed(input, &text) ||
      !GetStringVector(input, msg ? &msg->hashtags : nullptr) ||
      !GetStringVector(input, msg ? &msg->urls : nullptr) ||
      !GetStringVector(input, msg ? &msg->keywords : nullptr) ||
      !GetVarint32(input, &is_rt) || !GetLengthPrefixed(input, &rt_user) ||
      !GetVarsint64(input, &retweet_of_id)) {
    return false;
  }
  if (msg != nullptr) {
    msg->id = id;
    msg->date = date;
    msg->user = std::string(user);
    msg->text = std::string(text);
    msg->is_retweet = is_rt != 0;
    msg->retweet_of_user = std::string(rt_user);
    msg->retweet_of_id = retweet_of_id;
  }
  return true;
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

Status DecodeMessageBinary(std::string_view* input, Message* msg) {
  *msg = Message();
  if (!ParseMessageBinary(input, msg)) {
    return Status::Corruption("truncated binary message");
  }
  return Status::OK();
}

Status SkipMessageBinary(std::string_view* input) {
  if (!ParseMessageBinary(input, nullptr)) {
    return Status::Corruption("truncated binary message");
  }
  return Status::OK();
}

}  // namespace microprov
