#include "obs/jsonl.h"

#include <cstdlib>

#include "common/string_util.h"

namespace microprov {
namespace obs {

namespace {

/// Returns the offset of the bracket or brace that closes the one at
/// `open`, skipping quoted strings, or npos when it is unterminated.
size_t MatchingClose(std::string_view s, size_t open) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = open; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ']' || c == '}') {
      if (--depth == 0) return i;
    }
  }
  return std::string_view::npos;
}

}  // namespace

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          StringAppendF(out, "\\u%04x", c);
        } else {
          *out += c;
        }
    }
  }
}

size_t JsonObject::ValueOffset(std::string_view key) const {
  std::string needle = "\"" + std::string(key) + "\":";
  size_t pos = text_.find(needle);
  return pos == std::string_view::npos ? pos : pos + needle.size();
}

bool JsonObject::Int(std::string_view key, int64_t* out) const {
  size_t pos = ValueOffset(key);
  if (pos == std::string_view::npos) return false;
  // strtoll needs NUL termination; numbers are short, so copy the tail.
  std::string tail(text_.substr(pos, 32));
  char* end = nullptr;
  int64_t parsed = std::strtoll(tail.c_str(), &end, 10);
  if (end == tail.c_str()) return false;
  *out = parsed;
  return true;
}

bool JsonObject::Double(std::string_view key, double* out) const {
  size_t pos = ValueOffset(key);
  if (pos == std::string_view::npos) return false;
  std::string tail(text_.substr(pos, 64));
  char* end = nullptr;
  double parsed = std::strtod(tail.c_str(), &end);
  if (end == tail.c_str()) return false;
  *out = parsed;
  return true;
}

bool JsonObject::Bool(std::string_view key, bool* out) const {
  size_t pos = ValueOffset(key);
  if (pos == std::string_view::npos) return false;
  if (text_.substr(pos, 4) == "true") {
    *out = true;
    return true;
  }
  if (text_.substr(pos, 5) == "false") {
    *out = false;
    return true;
  }
  return false;
}

bool JsonObject::String(std::string_view key, std::string* out) const {
  size_t pos = ValueOffset(key);
  if (pos == std::string_view::npos || pos >= text_.size() ||
      text_[pos] != '"') {
    return false;
  }
  ++pos;
  out->clear();
  while (pos < text_.size()) {
    char c = text_[pos];
    if (c == '"') return true;
    if (c != '\\') {
      *out += c;
      ++pos;
      continue;
    }
    if (pos + 1 >= text_.size()) return false;
    switch (text_[pos + 1]) {
      case '"':
        *out += '"';
        break;
      case '\\':
        *out += '\\';
        break;
      case 'n':
        *out += '\n';
        break;
      case 'r':
        *out += '\r';
        break;
      case 't':
        *out += '\t';
        break;
      case 'u': {
        if (pos + 5 >= text_.size()) return false;
        std::string hex(text_.substr(pos + 2, 4));
        char* end = nullptr;
        long code = std::strtol(hex.c_str(), &end, 16);
        if (end != hex.c_str() + 4 || code < 0 || code > 0xff) {
          return false;
        }
        *out += static_cast<char>(code);
        pos += 4;
        break;
      }
      default:
        return false;
    }
    pos += 2;
  }
  return false;
}

bool JsonObject::Array(std::string_view key, std::string_view* body) const {
  size_t open = ValueOffset(key);
  if (open == std::string_view::npos || open >= text_.size() ||
      text_[open] != '[') {
    return false;
  }
  size_t close = MatchingClose(text_, open);
  if (close == std::string_view::npos) return false;
  *body = text_.substr(open + 1, close - open - 1);
  return true;
}

bool JsonObject::Objects(std::string_view key,
                         std::vector<JsonObject>* out) const {
  std::string_view body;
  if (!Array(key, &body)) return false;
  out->clear();
  size_t open = body.find('{');
  while (open != std::string_view::npos) {
    size_t close = MatchingClose(body, open);
    if (close == std::string_view::npos) return false;
    out->emplace_back(body.substr(open, close - open + 1));
    open = body.find('{', close + 1);
  }
  return true;
}

Status ForEachJsonLine(
    std::string_view text, const char* what,
    const std::function<const char*(const JsonObject&)>& parse_line) {
  size_t line_no = 0;
  while (!text.empty()) {
    size_t nl = text.find('\n');
    std::string_view line =
        nl == std::string_view::npos ? text : text.substr(0, nl);
    text = nl == std::string_view::npos ? std::string_view()
                                        : text.substr(nl + 1);
    ++line_no;
    if (line.empty()) continue;
    if (const char* error = parse_line(JsonObject(line))) {
      return Status::InvalidArgument(
          StringPrintf("%s line %zu: %s", what, line_no, error));
    }
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace microprov
