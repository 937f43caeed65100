// Service-level benchmark for microprov: drives microprov::Service through
// its public API with generated streams (src/gen) and reports end-to-end
// metrics, or, with --trace 1, per-layer metrics plus a span log.
//
//   perfbench --workload firehose --seed 7 --seconds 10 --trace 0
//   perfbench --smoke            # every workload, small, all checks
//
// Workloads (see README.md): firehose, search_under_ingest, flash_crowd.
// Each run does a fixed amount of work on a fixed schedule derived from
// --seconds and --seed, checks the outputs, and prints one JSON object
// as its last line.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "checks.h"
#include "common/clock.h"
#include "common/random.h"
#include "gen/generator.h"
#include "gen/zipf.h"
#include "recovery/checkpoint.h"
#include "service/service.h"
#include "service/sharded_engine.h"
#include "storage/bundle_store.h"
#include "tracer.h"

namespace perfbench {
namespace {

using microprov::BundleQuery;
using microprov::EngineOptions;
using microprov::Message;
using microprov::MonotonicNanos;
using microprov::Service;
using microprov::ServiceOptions;
using microprov::ServiceStats;

/// Largest generated event. The generator's power law otherwise puts a
/// few thousand-message events in a stream, and how many a seed draws
/// moves memory, disk and search cost by a fifth between seeds.
constexpr uint64_t kMaxEventSize = 300;

constexpr double kNanosPerUs = 1e3;
constexpr double kNanosPerSec = 1e9;
constexpr double kBytesPerMiB = 1024.0 * 1024.0;
/// firehose and flash_crowd run their whole sequence this many times on
/// fresh state: on this class of shared host a timing integrated over a
/// few seconds moves by a tenth, one integrated over the run by a few
/// hundredths.
constexpr int kPasses = 3;
/// Close/reopen cycles after each pass; recovery_s is their median.
constexpr int kReopensPerPass = 2;
/// Events searched for recall and the quiescent passes: larger than one
/// 10-message page, so a flat page cannot cover them whole.
constexpr uint32_t kMinEventSize = 12;
/// firehose and flash_crowd preload this share of their stream as
/// set-up, before the measured ingest of the rest.
constexpr double kPreloadShare = 0.1;
/// Set-ups (Open + preload + Flush on fresh state) timed per firehose or
/// flash_crowd pass, and in search_under_ingest; setup_s is the median.
constexpr int kSetupsPerPass = 3;
constexpr int kSetups = 5;
/// The fault probe's fixed stream: it does not depend on --seed or
/// --seconds, and on it two known faults fail a check on every run.
constexpr uint64_t kProbeSeed = 2;
constexpr uint64_t kProbeMessages = 60000;
/// Every Nth page of a quiescent pass is re-run with prune=false, and
/// compared again after reopen.
constexpr size_t kPruneSampleEvery = 10;
/// search_under_ingest times recovery as the median of this many reopens.
constexpr int kSearchReopens = 30;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool smoke = false;
  /// search_under_ingest's broad queries per ten (an assumption; see
  /// README.md, Workloads).
  int broad_tenths = 3;
  std::string state_dir = ".bench_state";
  std::string out_dir = ".bench_out";
};

double Us(int64_t nanos) { return static_cast<double>(nanos) / kNanosPerUs; }
double Secs(int64_t nanos) {
  return static_cast<double>(nanos) / kNanosPerSec;
}

// ---------------------------------------------------------------------
// Streams and options

Stream MakeStream(uint64_t seed, uint64_t total,
                  const std::vector<microprov::InjectedEvent>& injected) {
  microprov::GeneratorOptions options;
  options.seed = seed;
  options.total_messages = total;
  options.event_options.max_event_size = kMaxEventSize;
  microprov::StreamGenerator generator(options);
  for (const auto& event : injected) generator.Inject(event);
  Stream stream;
  stream.messages = generator.Generate(&stream.truth);
  return stream;
}

/// The paper's pool limit M = 10k for a 700k stream, scaled to `n`.
size_t ScaledPoolLimit(uint64_t n) {
  return std::max<size_t>(500, static_cast<size_t>(10000.0 * n / 700000.0));
}

ServiceOptions MakeOptions(const std::string& state, size_t shards,
                           size_t pool_limit, uint64_t checkpoint_every,
                           bool traced) {
  ServiceOptions options;
  options.num_shards = shards;
  options.engine = EngineOptions::ForConfig(
      microprov::IndexConfig::kPartialIndex, pool_limit);
  options.archive_dir = state + "/archive";
  options.durability.dir = state + "/durable";
  options.durability.checkpoint_every_messages = checkpoint_every;
  if (traced) {
    // A one-event ring: the client reads each query's trace right after
    // its own Search call returns.
    options.query_trace_capacity = 1;
    options.query_trace_sample_every = 1;
  }
  return options;
}

/// Exactly `count` items spread evenly over `events`, repeating some
/// when there are fewer, so every seed runs the same number of queries.
std::vector<EventInfo> Spread(const std::vector<EventInfo>& events,
                              size_t count) {
  if (events.empty()) return {};
  std::vector<EventInfo> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(events[i * events.size() / count]);
  }
  return out;
}

/// Prints a metric's samples, so a run shows what its median rests on.
void PrintSamples(const char* name, const std::vector<double>& samples) {
  std::printf("%s samples:", name);
  for (double value : samples) std::printf(" %.4f", value);
  std::printf("\n");
}

// ---------------------------------------------------------------------
// Per-layer tallies of the traced run

struct QueryLayer {
  uint64_t queries = 0;
  std::map<std::string, int64_t> self_nanos;
  int64_t root_nanos = 0;
  uint64_t examined = 0;
  uint64_t pruned = 0;
  uint64_t archived = 0;
  uint64_t shard_results = 0;
  uint64_t results = 0;
  std::vector<double> wait_us;
};

const char* const kQueryStages[] = {"parse", "plan",        "candidates",
                                    "score", "archive",     "rank",
                                    "materialize", "merge"};

double CounterSum(const std::vector<microprov::obs::MetricSnapshot>& snap,
                  const std::string& name) {
  double total = 0;
  for (const auto& metric : snap) {
    if (metric.name == name) total += metric.value;
  }
  return total;
}

microprov::obs::HistogramStats Histogram(
    const std::vector<microprov::obs::MetricSnapshot>& snap,
    const std::string& name, const std::string& labels = "") {
  for (const auto& metric : snap) {
    if (metric.name == name && metric.labels == labels) return metric.hist;
  }
  return {};
}

// ---------------------------------------------------------------------
// One run: the service, the client-side accounting and the span log.

class Run {
 public:
  Run(const Args& args, ServiceOptions options, std::string state)
      : tracer(args.trace),
        args_(args),
        options_(std::move(options)),
        state_(std::move(state)) {}

  Service* service() const { return service_.get(); }
  const ServiceOptions& options() const { return options_; }
  const std::string& state() const { return state_; }
  bool traced() const { return args_.trace; }

  /// Opens the service on the state directory; returns seconds taken.
  double Open() {
    const int64_t t0 = MonotonicNanos();
    auto service_or = Service::Open(options_);
    const int64_t t1 = MonotonicNanos();
    outcome.Attempt();
    if (!service_or.ok()) {
      outcome.Fail("Open: " + service_or.status().ToString());
      std::fprintf(stderr, "cannot continue without a service\n");
      std::exit(1);
    }
    service_ = std::move(*service_or);
    tracer.Add(tracer.NewRequest(), 0, "service.open", t0, t1);
    return Secs(t1 - t0);
  }

  /// Closes the service and returns its freed heap to the system. A run
  /// opens many services one after another in one process, and without
  /// the trim the next one's peak resident set would include an amount
  /// of the last one's freed memory that depends on which allocator
  /// arenas its threads drew (one seed's peak varied by 18%).
  void Close() {
    service_.reset();
    malloc_trim(0);
  }

  /// One Ingest call; returns its duration, or -1 when it failed.
  int64_t Ingest(const Message& msg) {
    outcome.Attempt();
    const int64_t t0 = MonotonicNanos();
    auto result = service_->Ingest(msg);
    const int64_t t1 = MonotonicNanos();
    if (!result.ok()) {
      outcome.Fail("Ingest: " + result.status().ToString());
      return -1;
    }
    tracer.Add(tracer.NewRequest(), 0, "service.ingest", t0, t1,
               static_cast<int32_t>(result->shard));
    ++accepted;
    return t1 - t0;
  }

  /// One Search call. `measured` searches feed the per-layer query
  /// tallies; `*call_nanos` receives the call's duration.
  Page Search(const BundleQuery& query, bool measured, int64_t* call_nanos) {
    outcome.Attempt();
    const int64_t t0 = MonotonicNanos();
    auto result = service_->Search(query);
    const int64_t t1 = MonotonicNanos();
    *call_nanos = t1 - t0;
    if (tracer.enabled()) NoteTrace(measured, t0, t1);
    if (!result.ok()) {
      outcome.Fail("Search: " + result.status().ToString());
      return {};
    }
    return std::move(*result);
  }

  bool Flush() {
    outcome.Attempt();
    const int64_t t0 = MonotonicNanos();
    microprov::Status status = service_->Flush();
    tracer.Add(tracer.NewRequest(), 0, "service.flush", t0,
               MonotonicNanos());
    if (!status.ok()) outcome.Fail("Flush: " + status.ToString());
    return status.ok();
  }

  /// Accepted = messages_ingested = the sum of per-shard ingested.
  void CheckConservation(const std::string& when) {
    const ServiceStats stats = service_->Stats();
    uint64_t shard_sum = 0;
    for (const auto& shard : stats.shards) shard_sum += shard.ingested;
    outcome.Check(stats.messages_ingested == accepted,
                  when + ": messages_ingested " +
                      std::to_string(stats.messages_ingested) +
                      " != accepted " + std::to_string(accepted));
    outcome.Check(shard_sum == accepted,
                  when + ": per-shard ingested sum " +
                      std::to_string(shard_sum) + " != accepted " +
                      std::to_string(accepted));
  }

  Outcome outcome;
  Tracer tracer;
  QueryLayer query_layer;
  /// Messages the service accepted (written by the ingesting thread).
  uint64_t accepted = 0;

 private:
  void NoteTrace(bool measured, int64_t t0, int64_t t1) {
    const uint64_t request = tracer.NewRequest();
    const uint32_t span = tracer.Add(request, 0, "service.search", t0, t1);
    auto events = service_->query_trace()->Snapshot();
    if (events.empty() || events.back().query_id == last_query_id_) return;
    const microprov::obs::QueryTraceEvent& event = events.back();
    last_query_id_ = event.query_id;
    tracer.AddProgramSpans(request, span, event, t1);
    if (!measured) return;
    QueryLayer& layer = query_layer;
    ++layer.queries;
    const int64_t root = RootNanos(event);
    layer.root_nanos += root;
    layer.wait_us.push_back(Us(t1 - t0 - root));
    for (const auto& [stage, nanos] : StageSelfNanos(event)) {
      layer.self_nanos[stage] += nanos;
    }
    for (const auto& shard : event.shards) {
      layer.examined += shard.examined;
      layer.pruned += shard.pruned;
      layer.archived += shard.archived_candidates;
      layer.shard_results += shard.results;
    }
    layer.results += event.result_count;
  }

  const Args& args_;
  ServiceOptions options_;
  std::string state_;
  std::unique_ptr<Service> service_;
  uint64_t last_query_id_ = 0;
};

// ---------------------------------------------------------------------
// Quiescent passes, end-of-stream state and recovery

/// Everything a workload hands to the report.
struct Measured {
  double setup_s = 0;
  double ingest_msgs_per_s = 0;
  std::vector<double> ingest_us;       // latency as the user sees it
  std::vector<double> ingest_call_us;  // time inside Ingest
  std::vector<double> search_us;       // latency as the user sees it
  std::vector<double> search_call_us;  // time inside Search
  double recall = 0;
  std::vector<double> recovery_s;
  uint64_t replayed = 0;
  uint64_t stream_messages = 0;
  // End-of-stream state, after the final Flush (on firehose the mean
  // over its passes; the rest from the last pass).
  double memory_mb = 0;
  /// The process's peak resident set when the workload ended, before
  /// the fault probe.
  double peak_rss_mb = 0;
  double disk_mb = 0;
  ServiceStats stats;
  std::vector<microprov::obs::MetricSnapshot> metrics;
  /// Archived hits of the checked pass, for the storage layer's timing.
  std::vector<std::pair<uint32_t, microprov::BundleId>> archived_hits;
};

/// Records the end-of-stream state and checks conservation.
void CaptureEnd(Run* run, Measured* m) {
  m->stats = run->service()->Stats();
  m->memory_mb = static_cast<double>(m->stats.memory_bytes) / kBytesPerMiB;
  m->disk_mb = static_cast<double>(DirBytes(run->state())) / kBytesPerMiB;
  m->metrics = run->service()->metrics()->Snapshot();
  run->CheckConservation("after final Flush");
}

/// One signature-tag query (k=10) per event on the quiescent service.
/// With `m` set the searches are measured: their latency is recorded and
/// they feed the per-layer query tallies.
std::vector<Page> QueryPass(Run* run, const std::vector<EventInfo>& events,
                            microprov::Timestamp now, Measured* m) {
  std::vector<Page> pages;
  pages.reserve(events.size());
  for (const EventInfo& event : events) {
    const BundleQuery query{.text = "#" + event.tag, .k = 10, .now = now};
    int64_t call_nanos = 0;
    pages.push_back(run->Search(query, m != nullptr, &call_nanos));
    if (m != nullptr) {
      m->search_us.push_back(Us(call_nanos));
      m->search_call_us.push_back(Us(call_nanos));
    }
  }
  return pages;
}

/// Every check on a quiescent pass: page shape, hit terms, a prune=false
/// re-run of every kPruneSampleEvery-th query, and event recall against
/// the flat 10-message page. Records recall and the archived hits, and
/// returns the tally of archived hits that lack a query term.
ArchivedTally CheckPass(Run* run, const Stream& stream,
               const std::vector<EventInfo>& events,
               const std::vector<Page>& pages, microprov::Timestamp now,
               Measured* m) {
  BundleLookup lookup(run->service());
  ArchivedTally archived;
  double recall_sum = 0;
  double flat_sum = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    BundleQuery query{.text = "#" + events[i].tag, .k = 10, .now = now};
    const std::string label = "pass '" + query.text + "'";
    CheckPageShape(pages[i], query.k, label, &run->outcome);
    recall_sum += CheckPageHits(pages[i], query.text, stream, &events[i],
                                &lookup, label, &archived, &run->outcome);
    flat_sum += std::min(1.0, 10.0 / events[i].size);
    for (const auto& hit : pages[i]) {
      if (hit.archived) m->archived_hits.emplace_back(hit.shard, hit.bundle);
    }
    if (i % kPruneSampleEvery == 0) {
      query.prune = false;
      int64_t call_nanos = 0;
      const Page unpruned = run->Search(query, false, &call_nanos);
      run->outcome.Check(SamePage(pages[i], unpruned),
                         label + ": prune=false page differs");
    }
  }
  PrintArchivedHits(archived, "quiescent pass");
  const double n = std::max<double>(1, events.size());
  m->recall = recall_sum / n;
  run->outcome.Check(m->recall > flat_sum / n,
                     "event_recall_at_10 " + std::to_string(m->recall) +
                         " is not above the flat 10-message page's " +
                         std::to_string(flat_sum / n));
  return archived;
}

/// Closes and reopens the service `count` times, timing each Open (the
/// recovery) and checking that the recovered service counts what was
/// accepted. With `pages` set, the first reopen also re-runs every
/// kPruneSampleEvery-th pass query and returns how many of those pages
/// differ from the ones before the close; the caller checks the count.
size_t Reopen(Run* run, int count, const std::vector<EventInfo>& events,
              const std::vector<Page>* pages, microprov::Timestamp now,
              Measured* m) {
  size_t changed = 0;
  for (int r = 0; r < count; ++r) {
    run->Close();
    m->recovery_s.push_back(run->Open());
    m->replayed = run->service()->Stats().replayed_messages;
    run->CheckConservation("after reopen");
    if (r > 0 || pages == nullptr) continue;
    size_t compared = 0;
    for (size_t i = 0; i < events.size(); i += kPruneSampleEvery) {
      ++compared;
      const BundleQuery query{.text = "#" + events[i].tag, .k = 10,
                              .now = now};
      int64_t call_nanos = 0;
      if (!SamePage(run->Search(query, false, &call_nanos), (*pages)[i])) {
        ++changed;
      }
    }
    std::printf("reopen: %zu of %zu quiescent pages differ from before "
                "close\n",
                changed, compared);
  }
  return changed;
}

// ---------------------------------------------------------------------
// Per-layer metrics (traced run)

struct CoreLayer {
  double ingest_us_per_msg = 0;
  double match_us_per_msg = 0;
  double placement_us_per_msg = 0;
  double refinement_us_per_msg = 0;
  double postings_scanned_per_msg = 0;
  double bundles_created = 0;
  double pool_evictions = 0;
};

/// Replays each shard's routed message sequence into a standalone
/// engine (with its own archive, as in the service) on this thread.
CoreLayer ReplayCore(const Run& run, const Stream& stream, uint64_t count) {
  const ServiceOptions& options = run.options();
  const size_t shards = options.num_shards;
  std::vector<std::vector<const Message*>> routed(shards);
  for (uint64_t i = 0; i < count; ++i) {
    const Message& msg = stream.messages[i];
    routed[microprov::RouteShard(msg, shards)].push_back(&msg);
  }
  microprov::obs::MetricsRegistry registry;
  int64_t nanos = 0;
  for (size_t s = 0; s < shards; ++s) {
    microprov::BundleStore::Options store_options;
    store_options.dir = run.state() + "/replay/shard-" + std::to_string(s);
    std::filesystem::create_directories(store_options.dir);
    auto store_or = microprov::BundleStore::Open(store_options);
    if (!store_or.ok()) {
      std::fprintf(stderr, "replay store: %s\n",
                   store_or.status().ToString().c_str());
      std::exit(1);
    }
    EngineOptions engine_options = options.engine.ShardSlice(shards);
    engine_options.metrics = &registry;
    engine_options.shard_index = static_cast<uint32_t>(s);
    microprov::SimulatedClock clock;
    microprov::ProvenanceEngine engine(engine_options, &clock,
                                       store_or->get());
    const int64_t t0 = MonotonicNanos();
    for (const Message* msg : routed[s]) {
      clock.Advance(msg->date);
      if (!engine.Ingest(*msg).ok()) {
        std::fprintf(stderr, "replay ingest failed\n");
        std::exit(1);
      }
    }
    nanos += MonotonicNanos() - t0;
  }
  const auto snap = registry.Snapshot();
  const double n = std::max<double>(1, static_cast<double>(count));
  auto stage_us = [&](const char* stage) {
    return Histogram(snap, "microprov_ingest_stage_nanos",
                     std::string("stage=\"") + stage + "\"")
               .sum /
           kNanosPerUs / n;
  };
  CoreLayer core;
  core.ingest_us_per_msg = Us(nanos) / n;
  core.match_us_per_msg = stage_us("bundle_match");
  core.placement_us_per_msg = stage_us("message_placement");
  core.refinement_us_per_msg = stage_us("memory_refinement");
  core.postings_scanned_per_msg =
      Histogram(snap, "microprov_index_postings_scanned").sum / n;
  core.bundles_created = CounterSum(snap, "microprov_pool_created_total");
  core.pool_evictions = CounterSum(snap, "microprov_pool_evictions_total");
  return core;
}

/// Times BundleStore::Get on the pass's archived hits, each store opened
/// on its own after the service closed. Returns the median, us.
double TimeStoreGets(
    const Run& run,
    const std::vector<std::pair<uint32_t, microprov::BundleId>>& hits) {
  std::vector<std::unique_ptr<microprov::BundleStore>> stores;
  for (size_t s = 0; s < run.options().num_shards; ++s) {
    microprov::BundleStore::Options store_options;
    store_options.dir = run.options().archive_dir + "/shard-" +
                        std::to_string(s);
    auto store_or = microprov::BundleStore::Open(store_options);
    if (!store_or.ok()) return 0;
    stores.push_back(std::move(*store_or));
  }
  auto unique = hits;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  std::vector<double> us;
  for (const auto& [shard, id] : unique) {
    const int64_t t0 = MonotonicNanos();
    auto bundle_or = stores[shard]->Get(id);
    const int64_t t1 = MonotonicNanos();
    if (bundle_or.ok()) us.push_back(Us(t1 - t0));
  }
  return Median(us);
}

void Report(Run* run, const Stream& stream, const Measured& m) {
  MetricSet metrics;
  Outcome* outcome = &run->outcome;
  if (!run->traced()) {
    metrics.Add("setup_s", m.setup_s, "s");
    metrics.Add("ingest_msgs_per_s", m.ingest_msgs_per_s, "msg/s");
    metrics.Add("search_p50_us", Median(m.search_us), "us");
    // Ingest latency and the search tail are printed, not reported: on
    // this class of shared host they move by more than any bound from
    // run to run, even on one seed (see README, Steadiness).
    std::printf("tail: ingest_mean_us=%.1f ingest_p90_us=%.1f "
                "ingest_p99_us=%.1f over %zu ingests, search_p99_us=%.1f "
                "over %zu searches\n",
                Mean(m.ingest_us), Percentile(m.ingest_us, 0.90),
                Percentile(m.ingest_us, 0.99), m.ingest_us.size(),
                Percentile(m.search_us, 0.99), m.search_us.size());
    metrics.Add("event_recall_at_10", m.recall, "fraction");
    metrics.Add("memory_mb", m.memory_mb, "MiB");
    metrics.Add("peak_rss_mb", m.peak_rss_mb, "MiB");
    metrics.Add("disk_mb", m.disk_mb, "MiB");
    metrics.Add("recovery_s", Median(m.recovery_s), "s");
    PrintSamples("recovery_s", m.recovery_s);
    std::printf("%s\n", metrics.ResultJson(*outcome).c_str());
    return;
  }

  const QueryLayer& q = run->query_layer;
  const ServiceStats& stats = m.stats;
  const CoreLayer core = ReplayCore(*run, stream, m.stream_messages);
  const double store_get_us = TimeStoreGets(*run, m.archived_hits);
  const double recovery_s = Median(m.recovery_s);

  uint64_t max_shard = 0;
  uint64_t sum_shard = 0;
  for (const auto& shard : stats.shards) {
    max_shard = std::max(max_shard, shard.ingested);
    sum_shard += shard.ingested;
  }
  const double mean_shard =
      static_cast<double>(sum_shard) / std::max<size_t>(1, stats.shards.size());
  const double queries = std::max<double>(1, q.queries);
  const double accepted = std::max<double>(1, run->accepted);
  const auto checkpoint = Histogram(m.metrics, "microprov_checkpoint_nanos");
  const double checkpoint_bytes =
      CounterSum(m.metrics, "microprov_checkpoint_bytes_total") +
      CounterSum(m.metrics, "microprov_checkpoint_delta_bytes_total");
  const double archive_bytes =
      static_cast<double>(DirBytes(run->options().archive_dir));
  auto stage = [&](const char* name) {
    auto it = q.self_nanos.find(name);
    return it == q.self_nanos.end() ? 0.0 : static_cast<double>(it->second);
  };
  double stage_total = 0;
  for (const char* name : kQueryStages) stage_total += stage(name);

  metrics.Add("service.ingest_call_p99_us",
              Percentile(m.ingest_call_us, 0.99), "us");
  metrics.Add("service.search_call_p50_us", Median(m.search_call_us), "us");
  metrics.Add("service.search_wait_p50_us", Median(q.wait_us), "us");
  metrics.Add("service.search_wait_p99_us", Percentile(q.wait_us, 0.99),
              "us");
  metrics.Add("service.backpressure_stalls",
              static_cast<double>(stats.backpressure_stalls), "count");
  metrics.Add("service.shard_skew",
              mean_shard > 0 ? max_shard / mean_shard : 0, "ratio");
  metrics.Add("core.ingest_us_per_msg", core.ingest_us_per_msg, "us");
  metrics.Add("core.match_us_per_msg", core.match_us_per_msg, "us");
  metrics.Add("core.placement_us_per_msg", core.placement_us_per_msg, "us");
  metrics.Add("core.refinement_us_per_msg", core.refinement_us_per_msg,
              "us");
  metrics.Add("core.postings_scanned_per_msg", core.postings_scanned_per_msg,
              "count");
  metrics.Add("core.bundles_created", core.bundles_created, "count");
  metrics.Add("core.pool_evictions", core.pool_evictions, "count");
  for (const char* name : kQueryStages) {
    metrics.Add(std::string("query.") + name + "_us",
                stage(name) / kNanosPerUs / queries, "us");
  }
  metrics.Add("query.examined_per_query", q.examined / queries, "count");
  metrics.Add("query.pruned_per_query", q.pruned / queries, "count");
  metrics.Add("query.archived_per_query", q.archived / queries, "count");
  metrics.Add("query.materialized_per_result",
              q.results > 0 ? static_cast<double>(q.shard_results) / q.results
                            : 0,
              "ratio");
  metrics.Add("query.span_coverage",
              q.root_nanos > 0 ? stage_total / q.root_nanos : 0, "ratio");
  metrics.Add("recovery.checkpoint_p50_ms", checkpoint.p50 / 1e6, "ms");
  metrics.Add("recovery.checkpoint_max_ms", checkpoint.max / 1e6, "ms");
  metrics.Add("recovery.wal_bytes_per_msg",
              static_cast<double>(stats.wal_appended_bytes) / accepted,
              "B/msg");
  metrics.Add("recovery.checkpoint_bytes_per_msg", checkpoint_bytes / accepted,
              "B/msg");
  metrics.Add("recovery.replay_msgs_per_s",
              recovery_s > 0 ? static_cast<double>(m.replayed) / recovery_s
                             : 0,
              "msg/s");
  metrics.Add("storage.get_p50_us", store_get_us, "us");
  metrics.Add("storage.bytes_per_bundle",
              stats.archived_bundles > 0
                  ? archive_bytes / static_cast<double>(stats.archived_bundles)
                  : 0,
              "B");
  metrics.Add("storage.archived_bundles",
              static_cast<double>(stats.archived_bundles), "count");

  std::printf("traced search_p50_us=%.1f (compare with the untraced run)\n",
              Median(m.search_us));
  std::printf("%s\n", metrics.ResultJson(*outcome).c_str());
}

// ---------------------------------------------------------------------
// Workloads

/// Closes the service, wipes its state and opens it again on empty
/// directories; returns the open time.
double OpenFresh(Run* run) {
  run->Close();
  std::filesystem::remove_all(run->state());
  std::filesystem::create_directories(run->state());
  run->accepted = 0;
  return run->Open();
}

/// Set-up on fresh state: Open, ingest the stream's first `count`
/// messages and Flush. Returns the seconds taken.
double PreloadFresh(Run* run, const Stream& stream, uint64_t count) {
  const double open_s = OpenFresh(run);
  const int64_t t0 = MonotonicNanos();
  for (uint64_t i = 0; i < count; ++i) run->Ingest(stream.messages[i]);
  run->Flush();
  return open_s + Secs(MonotonicNanos() - t0);
}

/// The firehose sequence once, untimed, on two shards and a fixed stream
/// that does not depend on --seed or --seconds. Its checks are those of
/// a firehose pass, except that two of them are counted here only: on
/// seeded streams how often they fail depends on the seed, while on this
/// stream two known faults (CHANGES.md, FOUND) fail them on every run.
///  - Every archived hit holds a query term of its type. The archive's
///    term index keys hashtags and keywords together, so a '#tag' query
///    reaches archived bundles that carry the word only as a keyword.
///  - The pages after a close and reopen equal those before. Recovery
///    replays the WAL tail into engines whose bundle ids start past the
///    archive's newest id, while the archive keeps the bundles the tail
///    already spilled.
void FaultProbe(const Args& args, const std::string& state,
                Outcome* outcome) {
  Args probe_args = args;
  probe_args.trace = false;
  const uint64_t n = kProbeMessages;
  std::printf("fault probe: generator seed %llu, %llu messages\n",
              static_cast<unsigned long long>(kProbeSeed),
              static_cast<unsigned long long>(n));
  const Stream stream = MakeStream(kProbeSeed, n, {});
  const auto events = Spread(SignatureEvents(stream, kMinEventSize), 1100);
  Run run(probe_args,
          MakeOptions(state, /*shards=*/2, ScaledPoolLimit(n), n / 12 + 7,
                      /*traced=*/false),
          state);
  OpenFresh(&run);
  for (const Message& msg : stream.messages) run.Ingest(msg);
  run.Flush();
  run.CheckConservation("probe after final Flush");
  const microprov::Timestamp now = run.service()->Now();
  const std::vector<Page> pages = QueryPass(&run, events, now, nullptr);
  Measured m;
  const ArchivedTally archived =
      CheckPass(&run, stream, events, pages, now, &m);
  run.outcome.CheckKnownFault(
      archived.lacking_term == 0,
      "probe: " + std::to_string(archived.lacking_term) +
          " archived hits lack every query term");
  const size_t changed = Reopen(&run, 1, events, &pages, now, &m);
  run.outcome.CheckKnownFault(
      changed == 0, "probe: " + std::to_string(changed) +
                        " quiescent pages differ after reopen");
  run.Close();
  std::filesystem::remove_all(state);
  outcome->Absorb(run.outcome);
  LogPhase("probe");
}

/// firehose: closed-loop ingest of a long stream into a pool bounded at
/// the paper's scaled M (refinement spills to the archive throughout),
/// periodic incremental checkpoints, then a quiescent pass of event
/// signature-tag queries and timed close/reopen cycles. The whole
/// sequence runs kPasses times on fresh state, each pass on its own
/// stream, so every timed quantity spans the run rather than a few
/// seconds of it, and every figure rests on kPasses streams rather than
/// on what one stream happens to hold.
std::unique_ptr<Run> Firehose(const Args& args, const std::string& state) {
  const uint64_t n = args.smoke ? 20000 : 7500ull * args.seconds;
  // A cadence that does not divide the stream leaves a WAL tail for
  // recovery to replay.
  const uint64_t checkpoint_every = n / 12 + 7;
  // One shard, so the busy threads (client, shard worker, WAL flusher)
  // leave a core spare. With two shards they filled all four, and runs
  // of one seed settled at ingest rates up to 40% apart.
  auto run = std::make_unique<Run>(
      args,
      MakeOptions(state, /*shards=*/1, ScaledPoolLimit(n), checkpoint_every,
                  args.trace),
      state);
  Measured m;
  m.stream_messages = n;
  const uint64_t preload = static_cast<uint64_t>(n * kPreloadShare);
  Stream stream;
  std::vector<double> setups;
  uint64_t ingested = 0;
  int64_t ingest_nanos = 0;
  std::vector<double> pass_rates;
  double memory_mb = 0;
  double disk_mb = 0;
  m.ingest_us.reserve(n * kPasses);
  for (int pass = 0; pass < kPasses; ++pass) {
    const bool last = pass == kPasses - 1;
    stream = Stream();  // free the last pass's stream before the next
    stream = MakeStream(args.seed * kPasses + pass, n, {});
    const auto events = Spread(SignatureEvents(stream, kMinEventSize),
                               args.smoke ? 200 : 1100);
    LogPhase("generate");
    for (int r = 0; r < kSetupsPerPass; ++r) {
      setups.push_back(PreloadFresh(run.get(), stream, preload));
    }
    const uint64_t before = run->accepted;
    const int64_t t0 = MonotonicNanos();
    for (uint64_t i = preload; i < n; ++i) {
      const int64_t call = run->Ingest(stream.messages[i]);
      if (call >= 0) m.ingest_us.push_back(Us(call));
    }
    run->Flush();
    const int64_t pass_nanos = MonotonicNanos() - t0;
    ingest_nanos += pass_nanos;
    ingested += run->accepted - before;
    pass_rates.push_back((run->accepted - before) / Secs(pass_nanos));
    CaptureEnd(run.get(), &m);
    memory_mb += m.memory_mb / kPasses;
    disk_mb += m.disk_mb / kPasses;
    const microprov::Timestamp now = run->service()->Now();
    const std::vector<Page> pages = QueryPass(run.get(), events, now, &m);
    if (last) CheckPass(run.get(), stream, events, pages, now, &m);
    Reopen(run.get(), kReopensPerPass, events, last ? &pages : nullptr, now,
           &m);
    LogPhase("pass");
  }
  m.memory_mb = memory_mb;
  m.disk_mb = disk_mb;
  m.setup_s = Median(setups);
  PrintSamples("setup_s", setups);
  PrintSamples("ingest_msgs_per_s per pass", pass_rates);
  run->Close();
  m.ingest_msgs_per_s = ingested / Secs(ingest_nanos);
  m.ingest_call_us = m.ingest_us;
  m.peak_rss_mb = PeakRssMb();
  FaultProbe(args, state + "/probe", &run->outcome);
  Report(run.get(), stream, m);
  return run;
}

/// flash_crowd: one injected event whose tag carries most messages over
/// a short window. Closed-loop ingest; every `interval` messages the
/// client calls Flush and searches the hot tag.
std::unique_ptr<Run> FlashCrowd(const Args& args, const std::string& state) {
  const uint64_t n = args.smoke ? 20000 : 6000ull * args.seconds;
  const uint64_t searches = args.smoke ? 50 : 300;  // per pass
  microprov::InjectedEvent hot;
  hot.name = "flash crowd";
  hot.hashtags = {"flashcrowd"};
  hot.size = n * 3 / 10;
  // Day 20 of the 61-day stream, over twelve hours.
  hot.start = microprov::GeneratorOptions().start_date +
              20 * microprov::kSecondsPerDay;
  hot.duration_secs = 12 * microprov::kSecondsPerHour;
  Stream stream = MakeStream(args.seed, n, {hot});
  LogPhase("generate");
  const auto events = Spread(SignatureEvents(stream, kMinEventSize),
                             args.smoke ? 100 : 300);

  auto run = std::make_unique<Run>(args,
                      MakeOptions(state, /*shards=*/2, ScaledPoolLimit(n),
                                  n / 12 + 7, args.trace),
                      state);
  Measured m;
  m.stream_messages = n;

  // The input must be a flash crowd: over the first half of the hot
  // event's messages, its tag is on at least half of the stream.
  {
    std::vector<size_t> hot_idx;
    for (size_t i = 0; i < stream.messages.size(); ++i) {
      if (stream.truth.event_of[i] == -2) hot_idx.push_back(i);
    }
    size_t tagged = 0;
    size_t lo = hot_idx.empty() ? 0 : hot_idx.front();
    size_t hi = hot_idx.empty() ? 0 : hot_idx[hot_idx.size() / 2];
    for (size_t i = lo; i <= hi && i < stream.messages.size(); ++i) {
      const auto& tags = stream.messages[i].hashtags;
      if (std::find(tags.begin(), tags.end(), "flashcrowd") != tags.end()) {
        ++tagged;
      }
    }
    run->outcome.Check(2 * tagged >= hi - lo + 1,
                       "hot tag is on fewer than half of the window");
  }

  // kPasses passes over the same stream, each on fresh state; the rate
  // is over all of them and the latencies pool every pass.
  const BundleQuery hot_query{.text = "#flashcrowd", .k = 10};
  const uint64_t preload = static_cast<uint64_t>(n * kPreloadShare);
  const uint64_t interval = (n - preload) / searches;
  ArchivedTally archived;
  std::vector<double> setups;
  uint64_t ingested = 0;
  int64_t ingest_nanos = 0;
  m.ingest_us.reserve(n * kPasses);
  for (int pass = 0; pass < kPasses; ++pass) {
    const bool last = pass == kPasses - 1;
    for (int r = 0; r < kSetupsPerPass; ++r) {
      setups.push_back(PreloadFresh(run.get(), stream, preload));
    }
    const uint64_t before = run->accepted;
    int64_t outside_nanos = 0;  // time in Search and its checks
    const int64_t t0 = MonotonicNanos();
    for (uint64_t i = preload; i < n; ++i) {
      const int64_t ingest_call = run->Ingest(stream.messages[i]);
      if (ingest_call >= 0) m.ingest_us.push_back(Us(ingest_call));
      if ((i - preload + 1) % interval != 0) continue;
      run->Flush();
      const int64_t s0 = MonotonicNanos();
      int64_t call = 0;
      const Page page = run->Search(hot_query, true, &call);
      m.search_us.push_back(Us(call));
      m.search_call_us.push_back(Us(call));
      const std::string label =
          "hot-tag page at message " + std::to_string(i);
      CheckPageShape(page, hot_query.k, label, &run->outcome);
      BundleLookup lookup(run->service());
      CheckPageHits(page, hot_query.text, stream, nullptr, &lookup, label,
                    &archived, &run->outcome);
      outside_nanos += MonotonicNanos() - s0;
    }
    run->Flush();
    ingest_nanos += MonotonicNanos() - t0 - outside_nanos;
    ingested += run->accepted - before;
    std::vector<Page> pages;
    const microprov::Timestamp now = run->service()->Now();
    if (last) {
      CaptureEnd(run.get(), &m);
      pages = QueryPass(run.get(), events, now, nullptr);
      CheckPass(run.get(), stream, events, pages, now, &m);
    }
    Reopen(run.get(), kReopensPerPass, events, last ? &pages : nullptr, now,
           &m);
    LogPhase("pass");
  }
  PrintArchivedHits(archived, "hot-tag pages");
  m.setup_s = Median(setups);
  PrintSamples("setup_s", setups);
  run->Close();
  m.peak_rss_mb = PeakRssMb();
  m.ingest_msgs_per_s = ingested / Secs(ingest_nanos);
  m.ingest_call_us = m.ingest_us;
  Report(run.get(), stream, m);
  return run;
}

/// search_under_ingest: a preloaded pool that never spills; one thread
/// ingests open-loop at a fixed rate while a second searches open-loop
/// at a fixed rate with a Zipfian mix of selective and broad queries.
std::unique_ptr<Run> SearchUnderIngest(const Args& args,
                                       const std::string& state) {
  const double ingest_rate = 700;  // msg/s
  const double search_rate = 55;   // queries/s
  const double window_s = args.smoke ? 2 : args.seconds;
  const uint64_t live = static_cast<uint64_t>(ingest_rate * window_s);
  const uint64_t searches = static_cast<uint64_t>(search_rate * window_s);
  // Checkpoint k (counting from 1) is a full base image when k is 1 more
  // than a multiple of full_checkpoint_every (F), an incremental delta
  // otherwise. With the cadence C = live / (F - 1) and a preload of
  // (F + 1.5) C, bases 1 and F + 1 fall in the set-up and the window
  // holds the F - 1 deltas after them: the ingest tail then rests on
  // those and on a thousand searches holding the lock, not on one or two
  // full images (which firehose measures).
  const uint64_t full_every =
      microprov::recovery::DurabilityOptions().full_checkpoint_every;
  const uint64_t checkpoint_every = live / (full_every - 1);
  const uint64_t preload = checkpoint_every * (2 * full_every + 3) / 2;
  const uint64_t n = preload + live;

  // Probe events: one-message events with unique tags, dated inside the
  // live part of the stream, for the read-your-writes probes.
  microprov::GeneratorOptions defaults;
  const double span =
      static_cast<double>(defaults.duration_days * microprov::kSecondsPerDay);
  const double live_from = static_cast<double>(preload) / n + 0.01;
  std::vector<microprov::InjectedEvent> probes;
  const size_t num_probes = 200;
  for (size_t p = 0; p < num_probes; ++p) {
    microprov::InjectedEvent probe;
    probe.name = "probe";
    probe.hashtags = {"probe" + std::to_string(p)};
    probe.size = 1;
    probe.start = defaults.start_date +
                  static_cast<microprov::Timestamp>(
                      span * (live_from + (0.98 - live_from) * p / num_probes));
    probe.duration_secs = 60;
    probes.push_back(probe);
  }
  Stream stream = MakeStream(args.seed, n, probes);
  LogPhase("generate");
  // (stream index, tag) of every probe message that carries its tag and
  // is ingested live.
  constexpr size_t kNoProbe = SIZE_MAX;
  std::vector<std::pair<size_t, std::string>> probe_msgs;
  for (size_t i = preload; i < n; ++i) {
    for (const std::string& tag : stream.messages[i].hashtags) {
      if (tag.rfind("probe", 0) == 0 && stream.truth.event_of[i] <= -2) {
        probe_msgs.emplace_back(i, tag);
      }
    }
  }

  // Query mix: selective = event signature tags; broad = three frequent
  // keywords. --broad-tenths slots in ten (3 by default) are broad, one in
  // five asks for k=100, and the popularity of each query within its kind
  // is Zipfian, with the ranking rotated every second of the window, so
  // a run's latency does not rest on which few queries a seed ranks
  // first. The mix is an assumption, not taken from a query log
  // (README.md, Workloads).
  const auto selective = Spread(SignatureEvents(stream, 5), 300);
  std::map<std::string, uint64_t> keyword_counts;
  for (uint64_t i = 0; i < preload; ++i) {
    for (const std::string& word : stream.messages[i].keywords) {
      ++keyword_counts[word];
    }
  }
  std::vector<std::pair<uint64_t, std::string>> ranked;
  for (const auto& [word, count] : keyword_counts) {
    const auto parsed = microprov::ParseQuery(word);
    if (parsed.keywords.size() == 1 && parsed.keywords[0] == word) {
      ranked.emplace_back(count, word);
    }
  }
  std::sort(ranked.rbegin(), ranked.rend());
  ranked.resize(std::min<size_t>(ranked.size(), 40));
  microprov::Random rng(args.seed * 7919 + 1);
  std::vector<std::string> broad;
  for (int b = 0; b < 100 && ranked.size() >= 3; ++b) {
    std::vector<std::string> words;
    while (words.size() < 3) {
      const std::string& w = ranked[rng.Uniform(ranked.size())].second;
      if (std::find(words.begin(), words.end(), w) == words.end()) {
        words.push_back(w);
      }
    }
    broad.push_back(words[0] + " " + words[1] + " " + words[2]);
  }
  microprov::ZipfSampler selective_zipf(std::max<size_t>(1, selective.size()),
                                        1.0);
  microprov::ZipfSampler broad_zipf(std::max<size_t>(1, broad.size()), 1.0);
  struct Slot {
    std::string text;
    size_t k = 10;
    bool probe = false;
  };
  std::vector<Slot> slots(searches);
  const uint64_t slots_per_second = static_cast<uint64_t>(search_rate);
  size_t selective_shift = 0;
  size_t broad_shift = 0;
  for (uint64_t j = 0; j < searches; ++j) {
    if (j % slots_per_second == 0) {
      selective_shift = rng.Uniform(std::max<size_t>(1, selective.size()));
      broad_shift = rng.Uniform(std::max<size_t>(1, broad.size()));
    }
    Slot& slot = slots[j];
    if (j % 50 == 49) {
      slot.probe = true;
      continue;
    }
    slot.k = j % 5 == 0 ? 100 : 10;
    if (static_cast<int>(j % 10) < args.broad_tenths && !broad.empty()) {
      slot.text =
          broad[(broad_zipf.Sample(&rng) + broad_shift) % broad.size()];
    } else if (!selective.empty()) {
      slot.text =
          "#" + selective[(selective_zipf.Sample(&rng) + selective_shift) %
                          selective.size()]
                    .tag;
    }
  }
  const auto events = Spread(SignatureEvents(stream, kMinEventSize),
                             args.smoke ? 100 : 300);

  auto run = std::make_unique<Run>(args,
                      MakeOptions(state, /*shards=*/1, n + 1000,
                                  checkpoint_every, args.trace),
                      state);
  Measured m;
  m.stream_messages = n;

  // Set-up is timed kSetups times on fresh state; the last one stays.
  std::vector<double> setups;
  for (int r = 0; r < kSetups; ++r) {
    double seconds = OpenFresh(run.get());
    const int64_t setup0 = MonotonicNanos();
    for (uint64_t i = 0; i < preload; ++i) run->Ingest(stream.messages[i]);
    run->Flush();
    setups.push_back(seconds + Secs(MonotonicNanos() - setup0));
  }
  m.setup_s = Median(setups);
  PrintSamples("setup_s", setups);
  LogPhase("setup");

  // Open loop: both clients send at absolute deadlines from t0.
  std::atomic<uint64_t> acked{preload};
  std::vector<double> lateness_us;
  std::vector<std::pair<size_t, Page>> probe_pages;
  std::vector<std::pair<size_t, Page>> mix_pages;
  const int64_t t0 = MonotonicNanos() + 20000000;
  int64_t ingest_end = 0;
  std::thread ingester([&] {
    TightenTimerSlack();
    m.ingest_us.reserve(live);
    for (uint64_t i = 0; i < live; ++i) {
      const int64_t due =
          t0 + static_cast<int64_t>(i * kNanosPerSec / ingest_rate);
      WaitUntil(due);
      const int64_t call = run->Ingest(stream.messages[preload + i]);
      if (call >= 0) {
        m.ingest_us.push_back(Us(MonotonicNanos() - due));
        m.ingest_call_us.push_back(Us(call));
      }
      acked.store(preload + i + 1, std::memory_order_release);
    }
    run->Flush();
    ingest_end = MonotonicNanos();
  });
  std::thread searcher([&] {
    TightenTimerSlack();
    for (uint64_t j = 0; j < searches; ++j) {
      const int64_t due =
          t0 + static_cast<int64_t>(j * kNanosPerSec / search_rate);
      WaitUntil(due);
      lateness_us.push_back(Us(MonotonicNanos() - due));
      const Slot& slot = slots[j];
      int64_t call = 0;
      if (slot.probe) {
        // The newest probe message already acknowledged to the ingester.
        // Before the first one is, the slot searches the first probe's
        // tag and expects nothing, so every seed runs the same probes.
        const uint64_t done = acked.load(std::memory_order_acquire);
        auto it = std::lower_bound(
            probe_msgs.begin(), probe_msgs.end(),
            std::make_pair(static_cast<size_t>(done), std::string()));
        const bool any = it != probe_msgs.begin();
        if (any) --it;
        const std::string tag = it == probe_msgs.end() ? "probe" : it->second;
        BundleQuery query{.text = "#" + tag, .k = 10};
        Page page = run->Search(query, false, &call);
        CheckPageShape(page, query.k, "probe", &run->outcome);
        probe_pages.emplace_back(any ? it->first : kNoProbe, std::move(page));
        continue;
      }
      BundleQuery query{.text = slot.text, .k = slot.k};
      Page page = run->Search(query, true, &call);
      m.search_us.push_back(Us(MonotonicNanos() - due));
      m.search_call_us.push_back(Us(call));
      CheckPageShape(page, query.k, "mix '" + query.text + "'",
                     &run->outcome);
      mix_pages.emplace_back(j, std::move(page));
    }
  });
  ingester.join();
  searcher.join();
  m.ingest_msgs_per_s = live / Secs(ingest_end - t0);
  // The achieved rate reads the schedule while ingest keeps up; a search
  // client that starves ingest (CHANGES.md, FOUND) drops it far below.
  run->outcome.Check(m.ingest_msgs_per_s >= 0.9 * ingest_rate,
                     "ingest fell behind its schedule: " +
                         std::to_string(m.ingest_msgs_per_s) + " msg/s");
  std::printf("schedule lateness (search sends): p50=%.1fus p99=%.1fus "
              "max=%.1fus over %zu sends\n",
              Median(lateness_us), Percentile(lateness_us, 0.99),
              Percentile(lateness_us, 1.0), lateness_us.size());

  // Nothing spilled, so every hit bundle of the run is still live and
  // can be checked now that the service is quiescent.
  {
    const ServiceStats stats = run->service()->Stats();
    run->outcome.Check(stats.archived_bundles == 0,
                       "search_under_ingest pool spilled to the archive");
    BundleLookup lookup(run->service());
    ArchivedTally archived;
    for (const auto& [j, page] : mix_pages) {
      CheckPageHits(page, slots[j].text, stream, nullptr, &lookup,
                    "mix '" + slots[j].text + "'", &archived, &run->outcome);
    }
    for (const auto& [index, page] : probe_pages) {
      bool found = index == kNoProbe;
      for (const auto& hit : page) {
        std::shared_ptr<const microprov::Bundle> hold;
        const microprov::Bundle* bundle = lookup.Find(hit, &hold);
        if (bundle != nullptr &&
            bundle->Find(static_cast<microprov::MessageId>(index)) !=
                nullptr) {
          found = true;
        }
      }
      run->outcome.Check(found, "read-your-writes probe for message " +
                                    std::to_string(index) + " missed it");
    }
    // A sample of the mix re-run quiescently: pruning never changes a page.
    const microprov::Timestamp now = run->service()->Now();
    for (uint64_t j = 0; j < searches; j += 10) {
      if (slots[j].probe) continue;
      BundleQuery query{.text = slots[j].text, .k = slots[j].k, .now = now};
      int64_t call = 0;
      Page pruned = run->Search(query, false, &call);
      query.prune = false;
      Page unpruned = run->Search(query, false, &call);
      run->outcome.Check(SamePage(pruned, unpruned),
                         "mix '" + query.text + "': prune=false differs");
    }
  }
  LogPhase("measure");
  CaptureEnd(run.get(), &m);
  const microprov::Timestamp now = run->service()->Now();
  const std::vector<Page> pages = QueryPass(run.get(), events, now, nullptr);
  CheckPass(run.get(), stream, events, pages, now, &m);
  // Nothing spilled, so recovery has no archive to disagree with.
  run->outcome.Check(
      Reopen(run.get(), kSearchReopens, events, &pages, now, &m) == 0,
      "quiescent pages differ after reopen");
  run->Close();
  m.peak_rss_mb = PeakRssMb();
  LogPhase("finish");
  Report(run.get(), stream, m);
  return run;
}

// ---------------------------------------------------------------------

using WorkloadFn = std::unique_ptr<Run> (*)(const Args&, const std::string&);

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "firehose") return Firehose;
  if (name == "search_under_ingest") return SearchUnderIngest;
  if (name == "flash_crowd") return FlashCrowd;
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload firehose|search_under_ingest|"
               "flash_crowd --seed N --seconds S --trace 0|1\n"
               "       perfbench --smoke\n"
               "       [--broad-tenths N]  search_under_ingest's broad "
               "queries per ten, default 3\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->seconds < 1 || args->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--broad-tenths") {
      args->broad_tenths =
          static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->broad_tenths < 0 || args->broad_tenths > 10) {
        return false;
      }
    } else if (flag == "--state-dir") {
      args->state_dir = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return args->smoke || FindWorkload(args->workload) != nullptr;
}

int RunOne(const Args& args, const std::string& name) {
  const std::string state = args.state_dir + "/" + name;
  std::filesystem::remove_all(state);
  std::filesystem::create_directories(state);
  std::filesystem::create_directories(args.out_dir);
  std::printf("workload=%s seed=%llu seconds=%d trace=%d state_fs=%s\n",
              name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              FilesystemName(state).c_str());
  LogPhase("start");
  std::unique_ptr<Run> run = FindWorkload(name)(args, state);
  int code = run->outcome.correct() ? 0 : 1;
  if (args.trace) {
    const std::string path = args.out_dir + "/spans-" + name + ".jsonl";
    microprov::Status status = run->tracer.WriteJsonl(path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      code = 1;
    }
  }
  std::filesystem::remove_all(state);
  return code;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return perfbench::Usage();
  if (!args.smoke) return perfbench::RunOne(args, args.workload);
  int code = 0;
  for (const char* name : {"firehose", "search_under_ingest", "flash_crowd"}) {
    if (perfbench::RunOne(args, name) != 0) code = 1;
  }
  return code;
}
