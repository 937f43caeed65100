#ifndef MICROPROV_OBS_TRACE_RING_H_
#define MICROPROV_OBS_TRACE_RING_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"

namespace microprov {
namespace obs {

/// A fixed-capacity ring of the most recent trace events, sampled 1 in
/// N and shared by any number of writer threads. The ingest trace is
/// one ring (TraceSink); the query trace keeps two (QueryTraceSink).
/// Each event type defines EventToJson and FromJsonl beside the event.
template <typename Event>
class TraceRing {
 public:
  /// `sample_every` makes ShouldSample pass 1 in N calls (1 = every
  /// call, 0 = none). Capacity 0 keeps nothing and samples nothing.
  explicit TraceRing(size_t capacity, size_t sample_every = 1)
      : capacity_(capacity), sample_every_(sample_every) {}

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Advances the sampling counter and returns whether the caller
  /// should trace this event. Thread-safe; the 1-in-N cadence is global
  /// across threads. Callers skip event assembly when it returns false.
  bool ShouldSample() {
    if (capacity_ == 0 || sample_every_ == 0) return false;
    if (sample_every_ == 1) return true;
    uint64_t n = sample_counter_.fetch_add(1, std::memory_order_relaxed);
    return n % sample_every_ == 0;
  }

  /// Keeps `event`, overwriting the oldest one once the ring is full.
  void Record(Event event) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(event));
    } else {
      ring_[next_] = std::move(event);
      next_ = (next_ + 1) % capacity_;
    }
    ++total_;
  }

  /// The buffered events, oldest first.
  std::vector<Event> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Event> out;
    out.reserve(ring_.size());
    // next_ is the oldest slot once the ring has wrapped.
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % ring_.size()]);
    }
    return out;
  }

  /// One JSON object per line, oldest first.
  std::string ToJsonl() const {
    std::string out;
    for (const Event& event : Snapshot()) {
      out += EventToJson(event);
      out += '\n';
    }
    return out;
  }

  static std::string EventToJson(const Event& event);

  /// Parses a ToJsonl dump (blank lines skipped). Fails with
  /// InvalidArgument on malformed lines.
  static StatusOr<std::vector<Event>> FromJsonl(std::string_view text);

  size_t capacity() const { return capacity_; }
  size_t sample_every() const { return sample_every_; }
  /// Events ever recorded / overwritten by ring wrap-around.
  uint64_t total_recorded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }
  uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_ - ring_.size();
  }

 private:
  const size_t capacity_;
  const size_t sample_every_;
  std::atomic<uint64_t> sample_counter_{0};
  mutable std::mutex mu_;
  std::vector<Event> ring_;
  size_t next_ = 0;
  uint64_t total_ = 0;
};

}  // namespace obs
}  // namespace microprov

#endif  // MICROPROV_OBS_TRACE_RING_H_
