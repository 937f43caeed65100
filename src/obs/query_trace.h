#ifndef MICROPROV_OBS_QUERY_TRACE_H_
#define MICROPROV_OBS_QUERY_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "obs/span.h"

namespace microprov {
namespace obs {

/// Appends `s` to *out as the body of a JSON string: quotes,
/// backslashes and control characters escaped.
void AppendJsonEscaped(std::string* out, std::string_view s);

/// What one shard contributed to a fanned-out query: the query terms
/// resolved in that shard's interning dictionary (-1 = term never seen
/// by the shard), how many candidate bundles it scored, and how many
/// hits it returned into the merge.
struct QueryShardTrace {
  uint32_t shard = 0;
  /// Interned TermIds of the query's terms in this shard's id space,
  /// in parse order; -1 for terms absent from the shard's dictionary.
  std::vector<int64_t> term_ids;
  /// Live-pool candidates examined (post-filter, pruned included).
  uint64_t candidates = 0;
  /// Archived bundles examined (decode-capped, pruned included).
  uint64_t archived_candidates = 0;
  /// Total candidates that reached the scoring stage (live + archived).
  uint64_t examined = 0;
  /// Candidates the top-k upper bound skipped without scoring.
  uint64_t pruned = 0;
  /// Hits this shard returned into the cross-shard merge.
  uint64_t results = 0;
};

/// The full record of one traced query: identity, the IDF-correction
/// population the shards scored against, per-shard contributions, the
/// end-to-end outcome, and the span tree with per-stage nanoseconds.
/// This is the record that answers "why was query X slow?".
struct QueryTraceEvent {
  uint64_t query_id = 0;
  std::string text;
  int64_t now = 0;
  uint64_t k = 0;
  /// Eq. 7 IDF-correction total: the combined live-bundle population
  /// every shard normalized its text score against.
  uint64_t total_bundles = 0;
  uint64_t result_count = 0;
  /// End-to-end latency (the root span's duration).
  uint64_t total_nanos = 0;
  /// True when the query exceeded the sink's slow threshold.
  bool slow = false;
  std::vector<QueryShardTrace> shards;
  std::vector<SpanRecord> spans;
};

/// Configuration for QueryTraceSink.
struct QueryTraceSinkOptions {
  /// Sampled ring capacity (0 disables the sampled ring; slow capture
  /// still works).
  size_t capacity = 256;
  /// Record every Nth query into the sampled ring (1 = all, 0 = none).
  size_t sample_every = 1;
  /// Queries slower than this are ALWAYS captured into the slow ring,
  /// sampled in or not (0 disables slow capture).
  uint64_t slow_query_nanos = 0;
  size_t slow_capacity = 64;
};

/// The query-path counterpart of TraceSink: a fixed-capacity ring of the
/// most recent sampled QueryTraceEvents plus a second ring that always
/// captures queries over the slow threshold. Thread-safe.
class QueryTraceSink {
 public:
  explicit QueryTraceSink(const QueryTraceSinkOptions& options);

  QueryTraceSink(const QueryTraceSink&) = delete;
  QueryTraceSink& operator=(const QueryTraceSink&) = delete;

  /// Monotonic id for the next traced query.
  uint64_t NextQueryId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// 1-in-N sampling decision, advanced per call. The caller still
  /// records unsampled events — the sink routes them to the slow ring
  /// when they cross the threshold and drops them otherwise.
  bool ShouldSample();

  /// Stamps `event.slow`, then records it into the sampled ring (when
  /// `sampled`), the slow ring (when over threshold), or neither.
  void Record(QueryTraceEvent event, bool sampled);

  /// Buffered events, oldest first.
  std::vector<QueryTraceEvent> Snapshot() const;
  std::vector<QueryTraceEvent> SlowSnapshot() const;

  /// One JSON object per line, oldest first.
  std::string ToJsonl() const;
  std::string SlowJsonl() const;

  static std::string EventToJson(const QueryTraceEvent& event);

  /// Parses a ToJsonl/SlowJsonl dump back into events (blank lines
  /// skipped); fails with InvalidArgument on malformed lines. Round-
  /// trips everything the JSON carries, including the span tree.
  static StatusOr<std::vector<QueryTraceEvent>> FromJsonl(
      std::string_view text);

  uint64_t total_recorded() const;
  uint64_t slow_recorded() const;
  uint64_t sampled_out() const;
  const QueryTraceSinkOptions& options() const { return options_; }

 private:
  struct Ring {
    explicit Ring(size_t capacity) : capacity(capacity) {}
    void Push(const QueryTraceEvent& event);
    std::vector<QueryTraceEvent> Contents() const;

    const size_t capacity;
    std::vector<QueryTraceEvent> items;
    size_t next = 0;
  };

  const QueryTraceSinkOptions options_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> sample_counter_{0};
  mutable std::mutex mu_;
  Ring ring_;
  Ring slow_ring_;
  uint64_t total_ = 0;
  uint64_t slow_total_ = 0;
  uint64_t sampled_out_ = 0;
};

}  // namespace obs
}  // namespace microprov

#endif  // MICROPROV_OBS_QUERY_TRACE_H_
