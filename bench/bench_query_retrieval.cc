// Reproduces the Section V-C / Fig. 1-vs-Fig. 2 comparison: flat
// per-message keyword search vs. provenance-bundle retrieval over the
// same stream and query set.
//
// The paper's claim is qualitative ("rich retrieval information over
// single message based search paradigms"); we quantify it with an
// event-retrieval task: for each ground-truth event, query its signature
// hashtag and measure how much of the event each paradigm surfaces in a
// 10-item result page. A flat page holds at most 10 messages; a bundle
// page groups the event, so its top hit alone recovers most of it.

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/clock.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "gen/generator.h"
#include "harness.h"
#include "obs/span.h"
#include "query/query_processor.h"
#include "stream/replay.h"

namespace microprov {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  BenchOptions options = ParseArgs(argc, argv, /*default_messages=*/80000);

  GeneratorOptions gen_options;
  gen_options.seed = options.seed;
  gen_options.total_messages = options.messages;
  // Unique signature hashtags so each query targets one event.
  gen_options.event_options.shared_hashtag_fraction = 0.0;
  StreamGenerator generator(gen_options);
  GroundTruth truth;
  std::vector<Message> messages = generator.Generate(&truth);
  PrintBanner("bench_query_retrieval",
              "Section V-C: bundle retrieval vs. flat message search",
              options, messages);

  // Index both ways.
  SimulatedClock clock;
  ProvenanceEngine engine(
      EngineOptions::ForConfig(IndexConfig::kFullIndex), &clock, nullptr);
  MessageSearchIndex flat;
  std::vector<BundleId> assigned(messages.size(), kInvalidBundleId);
  StreamReplayer replayer(&clock);
  Status st = replayer.Replay(messages, [&](const Message& msg) {
    flat.Add(msg);
    StatusOr<IngestResult> result = engine.Ingest(msg);
    if (result.ok()) assigned[msg.id] = result->bundle;
    return result.status();
  });
  if (!st.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Build the query set: signature hashtag of every event with >= 20
  // messages (up to 40 queries).
  std::unordered_map<int64_t, std::vector<MessageId>> event_members;
  for (size_t i = 0; i < messages.size(); ++i) {
    if (truth.event_of[i] >= 0) {
      event_members[truth.event_of[i]].push_back(
          static_cast<MessageId>(i));
    }
  }
  struct QueryCase {
    std::string query;
    std::unordered_set<MessageId> relevant;
  };
  std::vector<QueryCase> queries;
  for (auto& [event, members] : event_members) {
    if (members.size() < 20 || queries.size() >= 40) continue;
    // Signature hashtag = first hashtag of the event's first message.
    const Message& first = messages[members.front()];
    if (first.hashtags.empty()) continue;
    QueryCase qc;
    qc.query = "#" + first.hashtags[0];
    qc.relevant.insert(members.begin(), members.end());
    queries.push_back(std::move(qc));
  }
  if (queries.empty()) {
    std::fprintf(stderr, "no queryable events generated\n");
    return 1;
  }

  const size_t kPage = 10;
  BundleQueryProcessor bundles(&engine);
  double flat_recall_sum = 0, bundle_recall_sum = 0;
  double flat_precision_sum = 0;
  int64_t flat_ns = 0, bundle_ns = 0;
  // Per-stage span deltas for the bundle path: the same parse /
  // candidates / score / archive / rank spans the query tracer records,
  // aggregated across the query set.
  obs::SpanRecorder recorder;
  std::map<std::string, int64_t> stage_ns;
  std::map<std::string, uint64_t> stage_count;
  for (const QueryCase& qc : queries) {
    int64_t t0 = MonotonicNanos();
    auto flat_hits = flat.Search(qc.query, kPage);
    flat_ns += MonotonicNanos() - t0;
    size_t flat_rel = 0;
    for (const auto& hit : flat_hits) {
      if (qc.relevant.count(hit.message)) ++flat_rel;
    }
    flat_recall_sum +=
        static_cast<double>(flat_rel) / qc.relevant.size();
    flat_precision_sum +=
        flat_hits.empty()
            ? 0.0
            : static_cast<double>(flat_rel) / flat_hits.size();

    t0 = MonotonicNanos();
    auto bundle_hits = bundles.Search(
        {.text = qc.query, .k = kPage, .now = clock.Now()}, &recorder,
        /*parent_span=*/0, /*shard=*/0, /*shard_trace=*/nullptr);
    bundle_ns += MonotonicNanos() - t0;
    for (const obs::SpanRecord& span : recorder.Take()) {
      stage_ns[span.name] += span.duration_nanos;
      ++stage_count[span.name];
    }
    // Messages surfaced by the bundle page = union of members of the
    // returned bundles.
    std::unordered_set<MessageId> surfaced;
    for (const auto& hit : bundle_hits) {
      const Bundle* bundle = engine.pool().Get(hit.bundle);
      if (bundle == nullptr) continue;
      for (const BundleMessage& bm : bundle->messages()) {
        surfaced.insert(bm.msg.id);
      }
    }
    size_t bundle_rel = 0;
    for (MessageId id : surfaced) {
      if (qc.relevant.count(id)) ++bundle_rel;
    }
    bundle_recall_sum +=
        static_cast<double>(bundle_rel) / qc.relevant.size();
  }

  const double n = static_cast<double>(queries.size());
  SeriesTable table({"paradigm", "event_recall@10", "latency_us"});
  table.AddRow({"flat_message_search",
                StringPrintf("%.3f", flat_recall_sum / n),
                StringPrintf("%.1f", flat_ns / n / 1000.0)});
  table.AddRow({"bundle_retrieval",
                StringPrintf("%.3f", bundle_recall_sum / n),
                StringPrintf("%.1f", bundle_ns / n / 1000.0)});
  EmitTable(table, "query_retrieval", options);

  // Where the bundle-path latency goes, stage by stage. The span_stage
  // lines are machine-parsed by scripts/bench_snapshot.sh.
  int64_t span_total_ns = 0;
  for (const auto& [name, ns] : stage_ns) span_total_ns += ns;
  SeriesTable span_table({"stage", "mean_us", "share_pct"});
  for (const auto& [name, ns] : stage_ns) {
    const double count =
        static_cast<double>(std::max<uint64_t>(1, stage_count[name]));
    span_table.AddRow(
        {name, StringPrintf("%.1f", ns / count / 1000.0),
         StringPrintf("%.1f",
                      100.0 * ns / std::max<int64_t>(1, span_total_ns))});
  }
  EmitTable(span_table, "query_span_stages", options);
  for (const auto& [name, ns] : stage_ns) {
    const double count =
        static_cast<double>(std::max<uint64_t>(1, stage_count[name]));
    std::printf("span_stage: stage=%s n=%llu mean_us=%.2f total_ms=%.3f "
                "share=%.1f%%\n",
                name.c_str(), (unsigned long long)stage_count[name],
                ns / count / 1000.0, ns / 1e6,
                100.0 * ns / std::max<int64_t>(1, span_total_ns));
  }

  std::printf("queries: %zu events; flat precision@10=%.3f\n",
              queries.size(), flat_precision_sum / n);
  std::printf("shape check: bundle retrieval recovers %.1fx more of each "
              "event per result page (paper: bundle results carry 'rich "
              "structure' vs flat lists)\n",
              (bundle_recall_sum / n) /
                  std::max(1e-9, flat_recall_sum / n));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace microprov

int main(int argc, char** argv) {
  return microprov::bench::Run(argc, argv);
}
