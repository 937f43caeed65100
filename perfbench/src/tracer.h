#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/query_trace.h"

namespace perfbench {

/// One span: a call the benchmark made into a layer, or a stage span
/// the program recorded inside such a call. Spans of one client
/// operation share `request`; `parent` 0 marks a root.
struct SpanRec {
  uint64_t request = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  std::string name;
  int64_t start_nanos = 0;
  int64_t end_nanos = 0;
  /// Shard the span ran on, -1 when it is not shard-specific.
  int32_t shard = -1;
};

/// In-memory span log for the traced run, written out as JSONL when the
/// run ends. A disabled tracer records nothing and costs one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }

  /// Records a finished span and returns its id (0 when disabled).
  uint32_t Add(uint64_t request, uint32_t parent, const std::string& name,
               int64_t start_nanos, int64_t end_nanos, int32_t shard = -1);

  /// Nests the program's span tree for one Search call under the
  /// benchmark's `parent` span. The program's spans carry times relative
  /// to a recorder created inside the call after the lock and the flush
  /// barrier, so its root span is aligned to end when the call ended.
  void AddProgramSpans(uint64_t request, uint32_t parent,
                       const microprov::obs::QueryTraceEvent& event,
                       int64_t call_end_nanos);

  microprov::Status WriteJsonl(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_request_{0};
  std::mutex mu_;
  std::vector<SpanRec> spans_;
};

/// Per-stage self time of one traced query: a span's duration less the
/// part its children cover (children of one span never overlap here:
/// shards are searched serially on the calling thread).
std::map<std::string, int64_t> StageSelfNanos(
    const microprov::obs::QueryTraceEvent& event);

/// The root "search" span's duration, 0 when absent.
int64_t RootNanos(const microprov::obs::QueryTraceEvent& event);

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
