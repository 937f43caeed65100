#ifndef MICROPROV_OBS_TRACE_H_
#define MICROPROV_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "obs/trace_ring.h"

namespace microprov {
namespace obs {

/// One candidate bundle the matcher scored for a message (Eq. 1).
struct TraceCandidate {
  uint64_t bundle = 0;
  double score = 0;
};

/// The full match/placement decision for one ingested message: every
/// candidate fetched through the summary index with its Eq. 1 score,
/// and where the message finally landed. This is the record that
/// answers "why did message X join bundle Y (or start a new one)?".
struct IngestTraceEvent {
  int64_t message = 0;
  int64_t date = 0;
  uint32_t shard = 0;
  std::vector<TraceCandidate> candidates;
  /// Chosen bundle (0 = none existed and the engine created `chosen`
  /// fresh — see `created`).
  uint64_t chosen = 0;
  bool created = false;
  /// Winning Eq. 1 score (0 when a bundle was created).
  double score = 0;
  /// Alg. 2 parent message inside the bundle (-1 for roots) and the
  /// connection type as its numeric enum value.
  int64_t parent = -1;
  int connection = 0;
};

/// Opt-in ingest trace: the most recent IngestTraceEvents, shared by
/// every shard worker. Dumpable as JSONL for offline debugging of match
/// quality; FromJsonl round-trips the dump.
using TraceSink = TraceRing<IngestTraceEvent>;

template <>
std::string TraceRing<IngestTraceEvent>::EventToJson(
    const IngestTraceEvent& event);
template <>
StatusOr<std::vector<IngestTraceEvent>>
TraceRing<IngestTraceEvent>::FromJsonl(std::string_view text);

}  // namespace obs
}  // namespace microprov

#endif  // MICROPROV_OBS_TRACE_H_
