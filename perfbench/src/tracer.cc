#include "tracer.h"

#include <cstdio>
#include <unordered_map>

namespace perfbench {

using microprov::obs::QueryTraceEvent;
using microprov::obs::SpanRecord;

uint32_t Tracer::Add(uint64_t request, uint32_t parent,
                     const std::string& name, int64_t start_nanos,
                     int64_t end_nanos, int32_t shard) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  SpanRec span;
  span.request = request;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.name = name;
  span.start_nanos = start_nanos;
  span.end_nanos = end_nanos;
  span.shard = shard;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

int64_t RootNanos(const QueryTraceEvent& event) {
  for (const SpanRecord& span : event.spans) {
    if (span.parent == 0 && span.name == "search") {
      return span.duration_nanos;
    }
  }
  return 0;
}

void Tracer::AddProgramSpans(uint64_t request, uint32_t parent,
                             const QueryTraceEvent& event,
                             int64_t call_end_nanos) {
  if (!enabled_) return;
  int64_t root_end = 0;
  for (const SpanRecord& span : event.spans) {
    if (span.parent == 0 && span.name == "search") {
      root_end = span.start_nanos + span.duration_nanos;
    }
  }
  const int64_t offset = call_end_nanos - root_end;
  // Program span ids are assigned in Begin order, so a parent always
  // precedes its children and one pass maps every parent.
  std::unordered_map<uint32_t, uint32_t> ids;
  for (const SpanRecord& span : event.spans) {
    auto it = ids.find(span.parent);
    const uint32_t mapped_parent = it != ids.end() ? it->second : parent;
    const int32_t shard = span.shard == microprov::obs::kSpanNoShard
                              ? -1
                              : static_cast<int32_t>(span.shard);
    ids[span.id] = Add(request, mapped_parent, span.name,
                       offset + span.start_nanos,
                       offset + span.start_nanos + span.duration_nanos,
                       shard);
  }
}

microprov::Status Tracer::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return microprov::Status::IOError("cannot write " + path);
  }
  const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_nanos;
  for (const SpanRec& span : spans_) {
    std::fprintf(f,
                 "{\"request\":%llu,\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"shard\":%d}\n",
                 static_cast<unsigned long long>(span.request), span.id,
                 span.parent, span.name.c_str(),
                 static_cast<long long>(span.start_nanos - epoch),
                 static_cast<long long>(span.end_nanos - epoch), span.shard);
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? microprov::Status::OK()
            : microprov::Status::IOError("cannot close " + path);
}

std::map<std::string, int64_t> StageSelfNanos(const QueryTraceEvent& event) {
  std::unordered_map<uint32_t, int64_t> child_nanos;
  for (const SpanRecord& span : event.spans) {
    if (span.parent != 0) child_nanos[span.parent] += span.duration_nanos;
  }
  std::map<std::string, int64_t> self;
  for (const SpanRecord& span : event.spans) {
    auto it = child_nanos.find(span.id);
    const int64_t covered = it != child_nanos.end() ? it->second : 0;
    const int64_t own = span.duration_nanos - covered;
    self[span.name] += own > 0 ? own : 0;
  }
  return self;
}

}  // namespace perfbench
