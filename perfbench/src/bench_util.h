#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Operation accounting shared by the client threads: every Ingest,
/// Search and Flush call is attempted once, and every failed call or
/// violated output check counts as one failed operation. Every run of a
/// workload attempts the same operations whatever the seed, so a fault
/// that fails a check on every run fails the same share of them.
class Outcome {
 public:
  void Attempt(uint64_t n = 1) {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Counts one failed operation and logs the first few to stderr.
  void Fail(const std::string& what);
  /// Counts `ok ? 0 : 1` failures for one attempted check.
  void Check(bool ok, const std::string& what) {
    Attempt();
    if (!ok) Fail(what);
  }
  /// A check that a known fault of the program fails on every run (see
  /// the FOUND lines of CHANGES.md). Its failure counts in failed() but
  /// leaves correct() alone, so a new fault still shows as incorrect.
  void CheckKnownFault(bool ok, const std::string& what) {
    Attempt();
    if (!ok) {
      known_failed_.fetch_add(1, std::memory_order_relaxed);
      Fail("known fault: " + what);
    }
  }
  /// Adds another outcome's counts to this one.
  void Absorb(const Outcome& other) {
    attempted_.fetch_add(other.attempted_.load());
    failed_.fetch_add(other.failed_.load());
    known_failed_.fetch_add(other.known_failed_.load());
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  /// True when every failed operation is a known fault's check.
  bool correct() const {
    return attempted() > 0 && failed() == known_failed_.load();
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> known_failed_{0};
  std::mutex log_mu_;
};

/// Named metrics in insertion order, printed as the result line.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
  }
  /// The single JSON object the benchmark prints last.
  std::string ResultJson(const Outcome& outcome) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

double Mean(const std::vector<double>& values);
double Median(std::vector<double> values);
/// Nearest-rank percentile `q` in (0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

/// Bytes of the regular files under `dir` (0 when it does not exist).
uint64_t DirBytes(const std::string& dir);
/// The process's peak resident set, MiB.
double PeakRssMb();
/// Name of the filesystem holding `path` ("ext4", "tmpfs", ...).
std::string FilesystemName(const std::string& path);

/// Prints "phase <name> done at <seconds since the first call>" to
/// stdout, so each run shows where its wall time went.
void LogPhase(const char* name);

/// Lets this thread's timed sleeps wake within microseconds.
void TightenTimerSlack();
/// Waits for the absolute monotonic deadline: sleeps until shortly
/// before it, then spins, so a send is late by microseconds at most.
void WaitUntil(int64_t deadline_nanos);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
