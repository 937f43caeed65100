#ifndef MICROPROV_OBS_QUERY_TRACE_H_
#define MICROPROV_OBS_QUERY_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "obs/span.h"
#include "obs/trace_ring.h"

namespace microprov {
namespace obs {

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

template <>
std::string TraceRing<QueryTraceEvent>::EventToJson(
    const QueryTraceEvent& event);
/// Round-trips everything the JSON carries, including the span tree.
template <>
StatusOr<std::vector<QueryTraceEvent>>
TraceRing<QueryTraceEvent>::FromJsonl(std::string_view text);

/// The query-path trace: a ring of the most recent sampled
/// QueryTraceEvents plus a ring that always captures queries over the
/// slow threshold. Thread-safe.
class QueryTraceSink {
 public:
  /// The slow ring keeps this many of the most recent slow queries.
  static constexpr size_t kSlowCapacity = 64;

  /// The sampled ring keeps `capacity` events (0 disables it; slow
  /// capture still works), recording 1 in `sample_every` queries.
  /// Queries at or over `slow_query_nanos` always land in the slow
  /// ring, sampled in or not (0 disables slow capture).
  QueryTraceSink(size_t capacity, size_t sample_every,
                 uint64_t slow_query_nanos)
      : slow_query_nanos_(slow_query_nanos),
        sampled_(capacity, sample_every),
        slow_(kSlowCapacity) {}

  /// Monotonic id for the next traced query.
  uint64_t NextQueryId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// 1-in-N sampling decision, advanced per call. The caller still
  /// records unsampled events — the sink routes them to the slow ring
  /// when they cross the threshold and drops them otherwise.
  bool ShouldSample() { return sampled_.ShouldSample(); }

  /// Stamps `event.slow`, then records it into the sampled ring (when
  /// `sampled`), the slow ring (when over threshold), or neither.
  void Record(QueryTraceEvent event, bool sampled);

  /// Buffered events, oldest first.
  std::vector<QueryTraceEvent> Snapshot() const {
    return sampled_.Snapshot();
  }
  std::vector<QueryTraceEvent> SlowSnapshot() const {
    return slow_.Snapshot();
  }

  /// One JSON object per line, oldest first.
  std::string ToJsonl() const { return sampled_.ToJsonl(); }
  std::string SlowJsonl() const { return slow_.ToJsonl(); }

  /// Parses a ToJsonl or SlowJsonl dump.
  static StatusOr<std::vector<QueryTraceEvent>> FromJsonl(
      std::string_view text) {
    return Ring::FromJsonl(text);
  }

  uint64_t total_recorded() const { return sampled_.total_recorded(); }
  uint64_t slow_recorded() const { return slow_.total_recorded(); }
  uint64_t sampled_out() const {
    return sampled_out_.load(std::memory_order_relaxed);
  }
  uint64_t slow_query_nanos() const { return slow_query_nanos_; }

 private:
  using Ring = TraceRing<QueryTraceEvent>;

  const uint64_t slow_query_nanos_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> sampled_out_{0};
  Ring sampled_;
  Ring slow_;
};

}  // namespace obs
}  // namespace microprov

#endif  // MICROPROV_OBS_QUERY_TRACE_H_
