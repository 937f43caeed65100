#include "bench_util.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/clock.h"

namespace perfbench {

void Outcome::Fail(const std::string& what) {
  const uint64_t n = failed_.fetch_add(1, std::memory_order_relaxed);
  if (n < 20) {
    std::lock_guard<std::mutex> lock(log_mu_);
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
}

std::string MetricSet::ResultJson(const Outcome& outcome) const {
  const bool correct = outcome.correct();
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted());
  out += ", \"failed\": " + std::to_string(outcome.failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value_unit] = metrics_[i];
    char value[64];
    // Non-finite values are not JSON; report them as 0.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(value_unit.first) ? value_unit.first : 0.0);
    out += i == 0 ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           value_unit.second + "\"}";
  }
  out += "}}";
  return out;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

size_t RankIndex(size_t n, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return rank == 0 ? 0 : rank - 1;
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t idx = RankIndex(values.size(), q);
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  uint64_t total = 0;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const uint64_t size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string FilesystemName(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

void LogPhase(const char* name) {
  static const int64_t start = microprov::MonotonicNanos();
  std::printf("phase %s done at %.2fs\n", name,
              static_cast<double>(microprov::MonotonicNanos() - start) / 1e9);
}

void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

void WaitUntil(int64_t deadline_nanos) {
  constexpr int64_t kSpinNanos = 40000;
  const int64_t sleep_until = deadline_nanos - kSpinNanos;
  if (microprov::MonotonicNanos() < sleep_until) {
    struct timespec ts {};
    ts.tv_sec = sleep_until / 1000000000;
    ts.tv_nsec = sleep_until % 1000000000;
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
  }
  while (microprov::MonotonicNanos() < deadline_nanos) {
  }
}

}  // namespace perfbench
