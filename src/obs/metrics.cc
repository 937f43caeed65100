#include "obs/metrics.h"

#include "common/string_util.h"
#include "obs/jsonl.h"

namespace microprov {
namespace obs {

namespace {

std::string_view KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "summary";
  }
  return "?";
}

/// Prometheus HELP text escaping: the exposition format requires `\\`
/// and `\n` escapes in HELP lines (a raw newline would start a bogus
/// sample line and break scrapers).
void AppendEscapedHelp(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        *out += c;
    }
  }
}

/// `family{labels} value` (or `family value` when unlabeled); `extra` is
/// appended to the label body (the quantile label on summaries).
void AppendSample(std::string* out, const std::string& family,
                  const std::string& labels, std::string_view extra,
                  const std::string& value) {
  *out += family;
  if (!labels.empty() || !extra.empty()) {
    *out += '{';
    *out += labels;
    if (!labels.empty() && !extra.empty()) *out += ',';
    *out += extra;
    *out += '}';
  }
  *out += ' ';
  *out += value;
  *out += '\n';
}

}  // namespace

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(
    std::string_view name, std::string_view labels, std::string_view help,
    MetricKind kind) {
  auto key = std::make_pair(std::string(name), std::string(labels));
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    return it->second.kind == kind ? &it->second : nullptr;
  }
  Entry entry;
  entry.help = std::string(help);
  entry.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      entry.histogram = std::make_unique<HistogramMetric>();
      break;
  }
  return &entries_.emplace(std::move(key), std::move(entry)).first->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view labels,
                                     std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = FindOrCreate(name, labels, help, MetricKind::kCounter);
  return entry == nullptr ? nullptr : entry->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view labels,
                                 std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = FindOrCreate(name, labels, help, MetricKind::kGauge);
  return entry == nullptr ? nullptr : entry->gauge.get();
}

HistogramMetric* MetricsRegistry::GetHistogram(std::string_view name,
                                               std::string_view labels,
                                               std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = FindOrCreate(name, labels, help, MetricKind::kHistogram);
  return entry == nullptr ? nullptr : entry->histogram.get();
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricSnapshot snap;
    snap.name = key.first;
    snap.labels = key.second;
    snap.help = entry.help;
    snap.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        snap.value = static_cast<double>(entry.counter->value());
        break;
      case MetricKind::kGauge:
        snap.value = static_cast<double>(entry.gauge->value());
        break;
      case MetricKind::kHistogram:
        snap.hist = entry.histogram->Snapshot();
        break;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string MetricsRegistry::PrometheusText() const {
  std::vector<MetricSnapshot> snaps = Snapshot();
  std::string out;
  const std::string* prev_family = nullptr;
  for (const MetricSnapshot& snap : snaps) {
    if (prev_family == nullptr || *prev_family != snap.name) {
      if (!snap.help.empty()) {
        StringAppendF(&out, "# HELP %s ", snap.name.c_str());
        AppendEscapedHelp(&out, snap.help);
        out += '\n';
      }
      StringAppendF(&out, "# TYPE %s %s\n", snap.name.c_str(),
                    std::string(KindName(snap.kind)).c_str());
      prev_family = &snap.name;
    }
    switch (snap.kind) {
      case MetricKind::kCounter:
        AppendSample(&out, snap.name, snap.labels, {},
                     StringPrintf("%llu",
                                  (unsigned long long)snap.value));
        break;
      case MetricKind::kGauge:
        AppendSample(&out, snap.name, snap.labels, {},
                     StringPrintf("%lld", (long long)snap.value));
        break;
      case MetricKind::kHistogram: {
        const HistogramStats& h = snap.hist;
        AppendSample(&out, snap.name, snap.labels, "quantile=\"0.5\"",
                     StringPrintf("%llu", (unsigned long long)h.p50));
        AppendSample(&out, snap.name, snap.labels, "quantile=\"0.95\"",
                     StringPrintf("%llu", (unsigned long long)h.p95));
        AppendSample(&out, snap.name, snap.labels, "quantile=\"0.99\"",
                     StringPrintf("%llu", (unsigned long long)h.p99));
        AppendSample(&out, snap.name + "_sum", snap.labels, {},
                     StringPrintf("%.0f", h.sum));
        AppendSample(&out, snap.name + "_count", snap.labels, {},
                     StringPrintf("%llu", (unsigned long long)h.count));
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::Json() const {
  std::vector<MetricSnapshot> snaps = Snapshot();
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricSnapshot& snap : snaps) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, snap.name);
    out += "\",\"labels\":\"";
    AppendJsonEscaped(&out, snap.labels);
    StringAppendF(&out, "\",\"type\":\"%s\"",
                  std::string(KindName(snap.kind)).c_str());
    switch (snap.kind) {
      case MetricKind::kCounter:
        StringAppendF(&out, ",\"value\":%llu}",
                      (unsigned long long)snap.value);
        break;
      case MetricKind::kGauge:
        StringAppendF(&out, ",\"value\":%lld}", (long long)snap.value);
        break;
      case MetricKind::kHistogram:
        StringAppendF(&out,
                      ",\"count\":%llu,\"sum\":%.0f,\"p50\":%llu,"
                      "\"p95\":%llu,\"p99\":%llu,\"max\":%llu}",
                      (unsigned long long)snap.hist.count, snap.hist.sum,
                      (unsigned long long)snap.hist.p50,
                      (unsigned long long)snap.hist.p95,
                      (unsigned long long)snap.hist.p99,
                      (unsigned long long)snap.hist.max);
        break;
    }
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace microprov
