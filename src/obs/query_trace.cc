#include "obs/query_trace.h"

#include <cstdlib>

#include "common/string_util.h"

namespace microprov {
namespace obs {

namespace {

/// Locates `"key":` in `line` and returns the offset just past the
/// colon, or npos.
size_t ValueOffset(std::string_view line, std::string_view key,
                   size_t from = 0) {
  std::string needle = "\"" + std::string(key) + "\":";
  size_t pos = line.find(needle, from);
  return pos == std::string_view::npos ? pos : pos + needle.size();
}

bool ParseInt(std::string_view line, std::string_view key, int64_t* out,
              size_t from = 0) {
  size_t pos = ValueOffset(line, key, from);
  if (pos == std::string_view::npos) return false;
  std::string tail(line.substr(pos, 32));
  char* end = nullptr;
  int64_t parsed = std::strtoll(tail.c_str(), &end, 10);
  if (end == tail.c_str()) return false;
  *out = parsed;
  return true;
}

bool ParseBool(std::string_view line, std::string_view key, bool* out) {
  size_t pos = ValueOffset(line, key);
  if (pos == std::string_view::npos) return false;
  if (line.substr(pos, 4) == "true") {
    *out = true;
    return true;
  }
  if (line.substr(pos, 5) == "false") {
    *out = false;
    return true;
  }
  return false;
}

/// Parses the quoted string value of `"key":"..."`, undoing the escapes
/// AppendJsonEscaped emits. Sets *end_out past the closing quote.
bool ParseString(std::string_view line, std::string_view key,
                 std::string* out, size_t* end_out = nullptr,
                 size_t from = 0) {
  size_t pos = ValueOffset(line, key, from);
  if (pos == std::string_view::npos || pos >= line.size() ||
      line[pos] != '"') {
    return false;
  }
  ++pos;
  out->clear();
  while (pos < line.size()) {
    char c = line[pos];
    if (c == '"') {
      if (end_out != nullptr) *end_out = pos + 1;
      return true;
    }
    if (c == '\\') {
      if (pos + 1 >= line.size()) return false;
      char esc = line[pos + 1];
      switch (esc) {
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
          if (pos + 5 >= line.size()) return false;
          std::string hex(line.substr(pos + 2, 4));
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
    } else {
      *out += c;
      ++pos;
    }
  }
  return false;
}

/// Returns the [open, close] extent of the JSON array at `"key":[...]`,
/// tracking nesting of objects/arrays (no strings appear inside the
/// arrays we emit except span names, which ParseString strips before
/// this is used — still, skip quoted sections to stay robust).
bool ArrayExtent(std::string_view line, std::string_view key, size_t* open,
                 size_t* close) {
  size_t pos = ValueOffset(line, key);
  if (pos == std::string_view::npos || pos >= line.size() ||
      line[pos] != '[') {
    return false;
  }
  *open = pos;
  int depth = 0;
  bool in_string = false;
  for (size_t i = pos; i < line.size(); ++i) {
    char c = line[i];
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
      --depth;
      if (depth == 0) {
        *close = i;
        return true;
      }
    }
  }
  return false;
}

/// Splits the body of an array of objects `[{...},{...}]` into the
/// per-object substrings (each including its braces).
bool SplitObjects(std::string_view body,
                  std::vector<std::string_view>* out) {
  out->clear();
  size_t pos = 0;
  while (pos < body.size()) {
    size_t obj = body.find('{', pos);
    if (obj == std::string_view::npos) return true;
    int depth = 0;
    bool in_string = false;
    for (size_t i = obj; i < body.size(); ++i) {
      char c = body[i];
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
      } else if (c == '{') {
        ++depth;
      } else if (c == '}') {
        --depth;
        if (depth == 0) {
          out->push_back(body.substr(obj, i - obj + 1));
          pos = i + 1;
          break;
        }
      }
      if (i + 1 == body.size()) return false;  // unterminated object
    }
  }
  return true;
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

QueryTraceSink::QueryTraceSink(const QueryTraceSinkOptions& options)
    : options_(options),
      ring_(options.capacity),
      slow_ring_(options.slow_capacity == 0 ? 1 : options.slow_capacity) {}

bool QueryTraceSink::ShouldSample() {
  if (options_.sample_every == 0 || options_.capacity == 0) return false;
  if (options_.sample_every == 1) return true;
  uint64_t n = sample_counter_.fetch_add(1, std::memory_order_relaxed);
  return n % options_.sample_every == 0;
}

void QueryTraceSink::Record(QueryTraceEvent event, bool sampled) {
  const bool slow = options_.slow_query_nanos > 0 &&
                    event.total_nanos >= options_.slow_query_nanos;
  event.slow = slow;
  std::lock_guard<std::mutex> lock(mu_);
  if (slow) {
    ++slow_total_;
    slow_ring_.Push(event);
  }
  if (sampled && ring_.capacity > 0) {
    ++total_;
    ring_.Push(event);
  } else if (!slow) {
    ++sampled_out_;
  }
}

void QueryTraceSink::Ring::Push(const QueryTraceEvent& event) {
  if (items.size() < capacity) {
    items.push_back(event);
  } else {
    items[next] = event;
    next = (next + 1) % capacity;
  }
}

std::vector<QueryTraceEvent> QueryTraceSink::Ring::Contents() const {
  std::vector<QueryTraceEvent> out;
  out.reserve(items.size());
  // next is the oldest slot once the ring has wrapped.
  for (size_t i = 0; i < items.size(); ++i) {
    out.push_back(items[(next + i) % items.size()]);
  }
  return out;
}

std::vector<QueryTraceEvent> QueryTraceSink::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.Contents();
}

std::vector<QueryTraceEvent> QueryTraceSink::SlowSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_ring_.Contents();
}

uint64_t QueryTraceSink::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

uint64_t QueryTraceSink::slow_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_total_;
}

uint64_t QueryTraceSink::sampled_out() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sampled_out_;
}

std::string QueryTraceSink::EventToJson(const QueryTraceEvent& event) {
  std::string out;
  StringAppendF(&out, "{\"query\":%llu,\"text\":\"",
                (unsigned long long)event.query_id);
  AppendJsonEscaped(&out, event.text);
  StringAppendF(&out,
                "\",\"now\":%lld,\"k\":%llu,\"total_bundles\":%llu,"
                "\"results\":%llu,\"total_nanos\":%llu,\"slow\":%s,"
                "\"shards\":[",
                (long long)event.now, (unsigned long long)event.k,
                (unsigned long long)event.total_bundles,
                (unsigned long long)event.result_count,
                (unsigned long long)event.total_nanos,
                event.slow ? "true" : "false");
  for (size_t i = 0; i < event.shards.size(); ++i) {
    const QueryShardTrace& st = event.shards[i];
    StringAppendF(&out, "%s{\"shard\":%u,\"terms\":[",
                  i == 0 ? "" : ",", st.shard);
    for (size_t t = 0; t < st.term_ids.size(); ++t) {
      StringAppendF(&out, "%s%lld", t == 0 ? "" : ",",
                    (long long)st.term_ids[t]);
    }
    StringAppendF(&out,
                  "],\"candidates\":%llu,\"archived\":%llu,"
                  "\"examined\":%llu,\"pruned\":%llu,"
                  "\"results\":%llu}",
                  (unsigned long long)st.candidates,
                  (unsigned long long)st.archived_candidates,
                  (unsigned long long)st.examined,
                  (unsigned long long)st.pruned,
                  (unsigned long long)st.results);
  }
  out += "],\"spans\":[";
  for (size_t i = 0; i < event.spans.size(); ++i) {
    const SpanRecord& span = event.spans[i];
    StringAppendF(&out, "%s{\"id\":%u,\"parent\":%u,\"name\":\"",
                  i == 0 ? "" : ",", span.id, span.parent);
    AppendJsonEscaped(&out, span.name);
    StringAppendF(&out,
                  "\",\"shard\":%lld,\"start_nanos\":%lld,"
                  "\"duration_nanos\":%lld}",
                  span.shard == kSpanNoShard ? -1LL
                                             : (long long)span.shard,
                  (long long)span.start_nanos,
                  (long long)span.duration_nanos);
  }
  out += "]}";
  return out;
}

std::string QueryTraceSink::ToJsonl() const {
  std::string out;
  for (const QueryTraceEvent& event : Snapshot()) {
    out += EventToJson(event);
    out += '\n';
  }
  return out;
}

std::string QueryTraceSink::SlowJsonl() const {
  std::string out;
  for (const QueryTraceEvent& event : SlowSnapshot()) {
    out += EventToJson(event);
    out += '\n';
  }
  return out;
}

StatusOr<std::vector<QueryTraceEvent>> QueryTraceSink::FromJsonl(
    std::string_view text) {
  std::vector<QueryTraceEvent> out;
  size_t line_no = 0;
  while (!text.empty()) {
    size_t nl = text.find('\n');
    std::string_view line =
        nl == std::string_view::npos ? text : text.substr(0, nl);
    text = nl == std::string_view::npos ? std::string_view()
                                        : text.substr(nl + 1);
    ++line_no;
    if (line.empty()) continue;

    QueryTraceEvent event;
    int64_t query_id = 0;
    int64_t k = 0;
    int64_t total_bundles = 0;
    int64_t results = 0;
    int64_t total_nanos = 0;
    if (!ParseInt(line, "query", &query_id) ||
        !ParseString(line, "text", &event.text) ||
        !ParseInt(line, "now", &event.now) || !ParseInt(line, "k", &k) ||
        !ParseInt(line, "total_bundles", &total_bundles) ||
        !ParseInt(line, "results", &results) ||
        !ParseInt(line, "total_nanos", &total_nanos) ||
        !ParseBool(line, "slow", &event.slow)) {
      return Status::InvalidArgument(StringPrintf(
          "query trace line %zu: missing or malformed field", line_no));
    }
    event.query_id = static_cast<uint64_t>(query_id);
    event.k = static_cast<uint64_t>(k);
    event.total_bundles = static_cast<uint64_t>(total_bundles);
    event.result_count = static_cast<uint64_t>(results);
    event.total_nanos = static_cast<uint64_t>(total_nanos);

    size_t open = 0;
    size_t close = 0;
    std::vector<std::string_view> objects;
    if (!ArrayExtent(line, "shards", &open, &close) ||
        !SplitObjects(line.substr(open + 1, close - open - 1),
                      &objects)) {
      return Status::InvalidArgument(StringPrintf(
          "query trace line %zu: missing shards array", line_no));
    }
    for (std::string_view body : objects) {
      QueryShardTrace st;
      int64_t shard = 0;
      int64_t candidates = 0;
      int64_t archived = 0;
      int64_t examined = 0;
      int64_t pruned = 0;
      int64_t shard_results = 0;
      size_t terms_open = 0;
      size_t terms_close = 0;
      if (!ParseInt(body, "shard", &shard) ||
          !ArrayExtent(body, "terms", &terms_open, &terms_close) ||
          !ParseInt(body, "candidates", &candidates) ||
          !ParseInt(body, "archived", &archived) ||
          !ParseInt(body, "results", &shard_results)) {
        return Status::InvalidArgument(StringPrintf(
            "query trace line %zu: malformed shard entry", line_no));
      }
      // Older trace files predate the prune counters; default both to 0.
      if (!ParseInt(body, "examined", &examined)) examined = 0;
      if (!ParseInt(body, "pruned", &pruned)) pruned = 0;
      st.shard = static_cast<uint32_t>(shard);
      st.candidates = static_cast<uint64_t>(candidates);
      st.archived_candidates = static_cast<uint64_t>(archived);
      st.examined = static_cast<uint64_t>(examined);
      st.pruned = static_cast<uint64_t>(pruned);
      st.results = static_cast<uint64_t>(shard_results);
      std::string terms(
          body.substr(terms_open + 1, terms_close - terms_open - 1));
      const char* cursor = terms.c_str();
      while (*cursor != '\0') {
        char* end = nullptr;
        int64_t term = std::strtoll(cursor, &end, 10);
        if (end == cursor) break;
        st.term_ids.push_back(term);
        cursor = *end == ',' ? end + 1 : end;
      }
      event.shards.push_back(std::move(st));
    }

    if (!ArrayExtent(line, "spans", &open, &close) ||
        !SplitObjects(line.substr(open + 1, close - open - 1),
                      &objects)) {
      return Status::InvalidArgument(StringPrintf(
          "query trace line %zu: missing spans array", line_no));
    }
    for (std::string_view body : objects) {
      SpanRecord span;
      int64_t id = 0;
      int64_t parent = 0;
      int64_t shard = -1;
      if (!ParseInt(body, "id", &id) ||
          !ParseInt(body, "parent", &parent) ||
          !ParseString(body, "name", &span.name) ||
          !ParseInt(body, "shard", &shard) ||
          !ParseInt(body, "start_nanos", &span.start_nanos) ||
          !ParseInt(body, "duration_nanos", &span.duration_nanos)) {
        return Status::InvalidArgument(StringPrintf(
            "query trace line %zu: malformed span entry", line_no));
      }
      span.id = static_cast<uint32_t>(id);
      span.parent = static_cast<uint32_t>(parent);
      span.shard =
          shard < 0 ? kSpanNoShard : static_cast<uint32_t>(shard);
      event.spans.push_back(std::move(span));
    }
    out.push_back(std::move(event));
  }
  return out;
}

}  // namespace obs
}  // namespace microprov
