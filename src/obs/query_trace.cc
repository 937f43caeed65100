#include "obs/query_trace.h"

#include <cstdlib>

#include "common/string_util.h"
#include "obs/jsonl.h"

namespace microprov {
namespace obs {

void QueryTraceSink::Record(QueryTraceEvent event, bool sampled) {
  const bool slow =
      slow_query_nanos_ > 0 && event.total_nanos >= slow_query_nanos_;
  event.slow = slow;
  if (slow) slow_.Record(event);
  if (sampled && sampled_.capacity() > 0) {
    sampled_.Record(std::move(event));
  } else if (!slow) {
    sampled_out_.fetch_add(1, std::memory_order_relaxed);
  }
}

template <>
std::string TraceRing<QueryTraceEvent>::EventToJson(
    const QueryTraceEvent& event) {
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

namespace {

const char* ParseShard(const JsonObject& body, QueryShardTrace* st) {
  std::string_view terms;
  if (!body.Int("shard", &st->shard) || !body.Array("terms", &terms) ||
      !body.Int("candidates", &st->candidates) ||
      !body.Int("archived", &st->archived_candidates) ||
      !body.Int("results", &st->results)) {
    return "malformed shard entry";
  }
  // Older trace files predate the prune counters; both stay 0.
  body.Int("examined", &st->examined);
  body.Int("pruned", &st->pruned);
  std::string copy(terms);
  const char* cursor = copy.c_str();
  while (*cursor != '\0') {
    char* end = nullptr;
    int64_t term = std::strtoll(cursor, &end, 10);
    if (end == cursor) break;
    st->term_ids.push_back(term);
    cursor = *end == ',' ? end + 1 : end;
  }
  return nullptr;
}

const char* ParseSpan(const JsonObject& body, SpanRecord* span) {
  int64_t shard = -1;
  if (!body.Int("id", &span->id) || !body.Int("parent", &span->parent) ||
      !body.String("name", &span->name) || !body.Int("shard", &shard) ||
      !body.Int("start_nanos", &span->start_nanos) ||
      !body.Int("duration_nanos", &span->duration_nanos)) {
    return "malformed span entry";
  }
  span->shard = shard < 0 ? kSpanNoShard : static_cast<uint32_t>(shard);
  return nullptr;
}

}  // namespace

template <>
StatusOr<std::vector<QueryTraceEvent>>
TraceRing<QueryTraceEvent>::FromJsonl(std::string_view text) {
  std::vector<QueryTraceEvent> out;
  Status status = ForEachJsonLine(
      text, "query trace", [&out](const JsonObject& line) -> const char* {
        QueryTraceEvent event;
        if (!line.Int("query", &event.query_id) ||
            !line.String("text", &event.text) ||
            !line.Int("now", &event.now) || !line.Int("k", &event.k) ||
            !line.Int("total_bundles", &event.total_bundles) ||
            !line.Int("results", &event.result_count) ||
            !line.Int("total_nanos", &event.total_nanos) ||
            !line.Bool("slow", &event.slow)) {
          return "missing or malformed field";
        }
        std::vector<JsonObject> objects;
        if (!line.Objects("shards", &objects)) return "missing shards array";
        for (const JsonObject& body : objects) {
          event.shards.emplace_back();
          if (const char* error = ParseShard(body, &event.shards.back())) {
            return error;
          }
        }
        if (!line.Objects("spans", &objects)) return "missing spans array";
        for (const JsonObject& body : objects) {
          event.spans.emplace_back();
          if (const char* error = ParseSpan(body, &event.spans.back())) {
            return error;
          }
        }
        out.push_back(std::move(event));
        return nullptr;
      });
  if (!status.ok()) return status;
  return out;
}

}  // namespace obs
}  // namespace microprov
