#ifndef MICROPROV_OBS_JSONL_H_
#define MICROPROV_OBS_JSONL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace microprov {
namespace obs {

/// Appends `s` to *out as the body of a JSON string: quotes,
/// backslashes and control characters escaped.
void AppendJsonEscaped(std::string* out, std::string_view s);

/// Reads the fields of one JSON object as the trace dumps write it.
/// Each accessor finds the first `"key":` in the object and parses the
/// value after it; this reads what the EventToJson writers emit, not
/// arbitrary JSON.
class JsonObject {
 public:
  explicit JsonObject(std::string_view text) : text_(text) {}

  bool Int(std::string_view key, int64_t* out) const;
  /// An integer field narrowed to the field's type.
  template <typename T>
  bool Int(std::string_view key, T* out) const {
    int64_t value = 0;
    if (!Int(key, &value)) return false;
    *out = static_cast<T>(value);
    return true;
  }
  bool Double(std::string_view key, double* out) const;
  bool Bool(std::string_view key, bool* out) const;
  /// A quoted string, undoing the escapes AppendJsonEscaped emits.
  bool String(std::string_view key, std::string* out) const;
  /// The text between the brackets of `"key":[...]`.
  bool Array(std::string_view key, std::string_view* body) const;
  /// The objects of the array `"key":[{...},{...}]`.
  bool Objects(std::string_view key, std::vector<JsonObject>* out) const;

 private:
  /// Offset just past the colon of `"key":`, or npos.
  size_t ValueOffset(std::string_view key) const;

  std::string_view text_;
};

/// Calls `parse_line` on each non-blank line of a JSONL dump, in order.
/// It returns nullptr, or what is wrong with the line; the first error
/// fails the dump with InvalidArgument "<what> line <n>: <error>".
Status ForEachJsonLine(
    std::string_view text, const char* what,
    const std::function<const char*(const JsonObject&)>& parse_line);

}  // namespace obs
}  // namespace microprov

#endif  // MICROPROV_OBS_JSONL_H_
