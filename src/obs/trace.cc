#include "obs/trace.h"

#include "common/string_util.h"
#include "obs/jsonl.h"

namespace microprov {
namespace obs {

template <>
std::string TraceRing<IngestTraceEvent>::EventToJson(
    const IngestTraceEvent& event) {
  std::string out;
  StringAppendF(&out,
                "{\"msg\":%lld,\"date\":%lld,\"shard\":%u,"
                "\"chosen\":%llu,\"created\":%s,\"score\":%.17g,"
                "\"parent\":%lld,\"connection\":%d,\"candidates\":[",
                (long long)event.message, (long long)event.date,
                event.shard, (unsigned long long)event.chosen,
                event.created ? "true" : "false", event.score,
                (long long)event.parent, event.connection);
  for (size_t i = 0; i < event.candidates.size(); ++i) {
    StringAppendF(&out, "%s{\"bundle\":%llu,\"score\":%.17g}",
                  i == 0 ? "" : ",",
                  (unsigned long long)event.candidates[i].bundle,
                  event.candidates[i].score);
  }
  out += "]}";
  return out;
}

template <>
StatusOr<std::vector<IngestTraceEvent>>
TraceRing<IngestTraceEvent>::FromJsonl(std::string_view text) {
  std::vector<IngestTraceEvent> out;
  Status status = ForEachJsonLine(
      text, "trace", [&out](const JsonObject& line) -> const char* {
        IngestTraceEvent event;
        if (!line.Int("msg", &event.message) ||
            !line.Int("date", &event.date) ||
            !line.Int("shard", &event.shard) ||
            !line.Int("chosen", &event.chosen) ||
            !line.Bool("created", &event.created) ||
            !line.Double("score", &event.score) ||
            !line.Int("parent", &event.parent) ||
            !line.Int("connection", &event.connection)) {
          return "missing or malformed field";
        }
        std::vector<JsonObject> candidates;
        if (!line.Objects("candidates", &candidates)) {
          return "missing candidates array";
        }
        for (const JsonObject& body : candidates) {
          TraceCandidate candidate;
          if (!body.Int("bundle", &candidate.bundle) ||
              !body.Double("score", &candidate.score)) {
            return "malformed candidate";
          }
          event.candidates.push_back(candidate);
        }
        out.push_back(std::move(event));
        return nullptr;
      });
  if (!status.ok()) return status;
  return out;
}

}  // namespace obs
}  // namespace microprov
