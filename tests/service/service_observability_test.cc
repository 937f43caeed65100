// Integration coverage for the query-path tracing, per-shard health
// telemetry, and the embedded HTTP exposition endpoints.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "obs/http_exporter.h"
#include "obs/query_trace.h"
#include "obs/shard_health.h"
#include "service/service.h"
#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::kTestEpoch;
using testing_util::MakeMessage;
using testing_util::ScopedTempDir;

std::vector<Message> TopicStream() {
  std::vector<Message> messages;
  messages.push_back(
      MakeMessage(1, kTestEpoch, "alice", {}, {}, {"redsox"}));
  messages.push_back(
      MakeMessage(2, kTestEpoch + 30, "bob", {}, {}, {"redsox"}));
  messages.push_back(
      MakeMessage(3, kTestEpoch + 60, "carol", {"tsunami"}));
  messages.push_back(
      MakeMessage(4, kTestEpoch + 90, "dave", {"tsunami"}));
  return messages;
}

/// Lets a test freeze a worker/flusher thread inside a hook and release
/// it later (exactly once; later hook invocations pass through).
class Blocker {
 public:
  void BlockOnce() {
    std::unique_lock<std::mutex> lock(mu_);
    if (tripped_) return;
    tripped_ = true;
    blocked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    blocked_ = false;
  }

  void WaitUntilBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return blocked_ || released_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool tripped_ = false;
  bool blocked_ = false;
  bool released_ = false;
};

TEST(ServiceObservabilityTest, TracedQueryCapturesSpanTreeAndShards) {
  auto service_or = Service::Open(
      {.num_shards = 2, .query_trace_capacity = 8});
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  for (const Message& msg : TopicStream()) {
    ASSERT_TRUE(service.Ingest(msg).ok());
  }

  auto results_or = service.Search({.text = "redsox", .k = 4});
  ASSERT_TRUE(results_or.ok());
  ASSERT_FALSE(results_or->empty());

  ASSERT_NE(service.query_trace(), nullptr);
  std::vector<obs::QueryTraceEvent> events =
      service.query_trace()->Snapshot();
  ASSERT_EQ(events.size(), 1u);
  const obs::QueryTraceEvent& event = events[0];
  EXPECT_EQ(event.query_id, 1u);
  EXPECT_EQ(event.text, "redsox");
  EXPECT_EQ(event.k, 4u);
  EXPECT_GT(event.total_bundles, 0u);
  EXPECT_EQ(event.result_count, results_or->size());
  EXPECT_GT(event.total_nanos, 0u);
  EXPECT_FALSE(event.slow);

  // Both shards report: each resolved the query's one term against its
  // own dictionary, and candidate counts line up with the results.
  ASSERT_EQ(event.shards.size(), 2u);
  uint64_t candidates = 0;
  uint64_t shard_results = 0;
  int shards_knowing_term = 0;
  for (const obs::QueryShardTrace& shard : event.shards) {
    ASSERT_EQ(shard.term_ids.size(), 1u);
    if (shard.term_ids[0] >= 0) ++shards_knowing_term;
    candidates += shard.candidates + shard.archived_candidates;
    shard_results += shard.results;
  }
  EXPECT_GE(shards_knowing_term, 1);
  EXPECT_GE(candidates, shard_results);
  EXPECT_GE(shard_results, results_or->size());

  // Span tree: one root, a shard_search per shard under it, stage spans
  // under those.
  const obs::SpanRecord* root = nullptr;
  int shard_spans = 0;
  int stage_spans = 0;
  for (const obs::SpanRecord& span : event.spans) {
    if (span.name == "search") {
      EXPECT_EQ(span.parent, 0u);
      root = &span;
    }
  }
  ASSERT_NE(root, nullptr);
  for (const obs::SpanRecord& span : event.spans) {
    if (span.name == "shard_search") {
      EXPECT_EQ(span.parent, root->id);
      EXPECT_LT(span.shard, 2u);
      ++shard_spans;
    } else if (span.name == "candidates" || span.name == "score" ||
               span.name == "rank" || span.name == "parse") {
      ++stage_spans;
    }
    EXPECT_LE(span.start_nanos + span.duration_nanos,
              root->start_nanos + root->duration_nanos);
  }
  EXPECT_EQ(shard_spans, 2);
  EXPECT_GT(stage_spans, 0);
}

TEST(ServiceObservabilityTest, SampledOutQueriesRecordNothing) {
  // 1-in-4 sampling, no slow log: queries 2..4 skip tracing entirely —
  // no span collection, no Record call, nothing in any ring.
  auto service_or = Service::Open({.num_shards = 2,
                                   .query_trace_capacity = 8,
                                   .query_trace_sample_every = 4});
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  for (const Message& msg : TopicStream()) {
    ASSERT_TRUE(service.Ingest(msg).ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.Search({.text = "redsox", .k = 4}).ok());
  }
  std::vector<obs::QueryTraceEvent> events =
      service.query_trace()->Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].query_id, 1u);
  EXPECT_EQ(service.query_trace()->sampled_out(), 0u);
  EXPECT_TRUE(service.query_trace()->SlowSnapshot().empty());

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queries_traced, 1u);
  EXPECT_EQ(stats.slow_queries, 0u);
}

TEST(ServiceObservabilityTest, SlowArmedSampledOutQueriesAreDropped) {
  // With the slow log armed, sampled-out queries ARE traced (the
  // latency is only known afterwards) but fast ones must be dropped at
  // Record time, leaving both rings untouched.
  auto service_or = Service::Open({.num_shards = 2,
                                   .query_trace_capacity = 8,
                                   .query_trace_sample_every = 4,
                                   .slow_query_nanos = 60'000'000'000});
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  for (const Message& msg : TopicStream()) {
    ASSERT_TRUE(service.Ingest(msg).ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.Search({.text = "redsox", .k = 4}).ok());
  }
  EXPECT_EQ(service.query_trace()->Snapshot().size(), 1u);
  EXPECT_EQ(service.query_trace()->sampled_out(), 3u);
  EXPECT_TRUE(service.query_trace()->SlowSnapshot().empty());
}

TEST(ServiceObservabilityTest, SlowQueryAlwaysCapturedAndRoundTrips) {
  // Sampling off entirely; a 1ns threshold makes every query "slow",
  // so the slow ring must capture it anyway, spans included.
  auto service_or = Service::Open({.num_shards = 2,
                                   .query_trace_capacity = 8,
                                   .query_trace_sample_every = 0,
                                   .slow_query_nanos = 1});
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  for (const Message& msg : TopicStream()) {
    ASSERT_TRUE(service.Ingest(msg).ok());
  }
  ASSERT_TRUE(service.Search({.text = "tsunami", .k = 4}).ok());

  EXPECT_TRUE(service.query_trace()->Snapshot().empty());
  EXPECT_TRUE(service.QueryTraceJsonl().empty());

  const std::string jsonl = service.SlowQueryJsonl();
  ASSERT_FALSE(jsonl.empty());
  auto parsed_or = obs::QueryTraceSink::FromJsonl(jsonl);
  ASSERT_TRUE(parsed_or.ok()) << parsed_or.status().ToString();
  ASSERT_EQ(parsed_or->size(), 1u);
  const obs::QueryTraceEvent& event = (*parsed_or)[0];
  EXPECT_TRUE(event.slow);
  EXPECT_EQ(event.text, "tsunami");

  // The exported JSONL reconstructs the full per-shard span tree: every
  // span's parent resolves, and each shard's shard_search subtree holds
  // its stage spans.
  ASSERT_FALSE(event.spans.empty());
  uint32_t root_id = 0;
  for (const obs::SpanRecord& span : event.spans) {
    if (span.parent == 0) {
      EXPECT_EQ(span.name, "search");
      root_id = span.id;
    }
  }
  ASSERT_GT(root_id, 0u);
  int resolved = 0;
  int shard_stage_spans = 0;
  for (const obs::SpanRecord& span : event.spans) {
    if (span.parent == 0) continue;
    bool parent_found = false;
    for (const obs::SpanRecord& candidate : event.spans) {
      if (candidate.id == span.parent) {
        parent_found = true;
        // Stage spans inherit their shard from the shard_search they
        // run under.
        if (candidate.name == "shard_search") {
          EXPECT_EQ(span.shard, candidate.shard);
          ++shard_stage_spans;
        }
        break;
      }
    }
    EXPECT_TRUE(parent_found) << "orphan span " << span.name;
    ++resolved;
  }
  EXPECT_GT(resolved, 0);
  EXPECT_GT(shard_stage_spans, 0);
  EXPECT_EQ(service.Stats().slow_queries, 1u);
}

TEST(ServiceObservabilityTest, IngestTraceSampling) {
  auto service_or = Service::Open(
      {.num_shards = 2, .trace_capacity = 64, .trace_sample_every = 2});
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(service
                    .Ingest(MakeMessage(i + 1, kTestEpoch + 30 * i,
                                        StringPrintf("user%d", i), {}, {},
                                        {"redsox"}))
                    .ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  // The 1-in-2 cadence is global: exactly half the messages traced.
  EXPECT_EQ(service.trace()->Snapshot().size(), 5u);
}

TEST(ServiceObservabilityTest, HandleHttpRoutesAllEndpoints) {
  auto service_or = Service::Open({.num_shards = 2,
                                   .trace_capacity = 8,
                                   .query_trace_capacity = 8});
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  for (const Message& msg : TopicStream()) {
    ASSERT_TRUE(service.Ingest(msg).ok());
  }
  ASSERT_TRUE(service.Search({.text = "redsox", .k = 4}).ok());

  obs::HttpResponse metrics = service.HandleHttp("/metrics", "");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type,
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(metrics.body.find("microprov_engine_messages_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("microprov_shard_health"),
            std::string::npos);

  obs::HttpResponse healthz = service.HandleHttp("/healthz", "");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body, "ok\n");

  obs::HttpResponse statusz = service.HandleHttp("/statusz", "");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_EQ(statusz.content_type, "application/json");
  EXPECT_NE(statusz.body.find("\"messages_ingested\":4"),
            std::string::npos);
  EXPECT_NE(statusz.body.find("\"health\":\"ok\""), std::string::npos);
  EXPECT_NE(statusz.body.find("\"shards\":["), std::string::npos);

  obs::HttpResponse traces = service.HandleHttp("/debug/traces", "");
  EXPECT_EQ(traces.status, 200);
  EXPECT_EQ(traces.content_type, "application/x-ndjson");
  EXPECT_NE(traces.body.find("\"spans\""), std::string::npos);

  obs::HttpResponse ingest_ring =
      service.HandleHttp("/debug/traces", "ring=ingest");
  EXPECT_EQ(ingest_ring.status, 200);
  EXPECT_EQ(ingest_ring.body, service.TraceJsonl());
  EXPECT_FALSE(ingest_ring.body.empty());

  obs::HttpResponse slow = service.HandleHttp("/debug/slow", "");
  EXPECT_EQ(slow.status, 200);
  EXPECT_TRUE(slow.body.empty());  // no slow log configured

  obs::HttpResponse missing = service.HandleHttp("/nope", "");
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("/metrics"), std::string::npos);
}

TEST(ServiceObservabilityTest, HttpServerServesScrapesUnderIngest) {
  auto service_or = Service::Open({.num_shards = 2,
                                   .query_trace_capacity = 8,
                                   .http_port = 0});
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  const uint16_t port = service.http_port();
  ASSERT_GT(port, 0);

  // Scrape while a second thread ingests: the exporter handler reads
  // only TSan-safe state, so this must be clean under load.
  std::thread ingester([&service] {
    for (int i = 0; i < 200; ++i) {
      (void)service.Ingest(MakeMessage(i + 1, kTestEpoch + 30 * i,
                                       StringPrintf("user%d", i), {}, {},
                                       {"redsox"}));
    }
  });
  int scrapes_ok = 0;
  for (int i = 0; i < 20; ++i) {
    auto metrics_or = obs::HttpGet(port, "/metrics");
    auto health_or = obs::HttpGet(port, "/healthz");
    auto status_or = obs::HttpGet(port, "/statusz");
    if (metrics_or.ok() && !metrics_or->empty() && health_or.ok() &&
        status_or.ok()) {
      ++scrapes_ok;
    }
  }
  ingester.join();
  EXPECT_EQ(scrapes_ok, 20);

  auto body_or = obs::HttpGet(port, "/metrics");
  ASSERT_TRUE(body_or.ok());
  EXPECT_NE(body_or->find("microprov_shard_ingested_total"),
            std::string::npos);
}

TEST(ServiceObservabilityTest, HealthzReports503OnStalledWorker) {
  Blocker blocker;
  ServiceOptions options;
  options.num_shards = 2;
  options.health.stall_nanos = 50'000'000;  // 50 ms
  // Freeze the first shard worker that touches its engine.
  options.engine.ingest_fault_for_test = [&blocker](const Message&) {
    blocker.BlockOnce();
    return Status::OK();
  };
  auto service_or = Service::Open(options);
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;

  ASSERT_TRUE(
      service.Ingest(MakeMessage(1, kTestEpoch, "alice", {}, {}, {"redsox"}))
          .ok());
  blocker.WaitUntilBlocked();

  // The worker is frozen holding a queued message: the shard must read
  // as stalled once the stall threshold elapses, and /healthz must flip
  // to 503 naming it.
  obs::HttpResponse healthz;
  bool stalled = false;
  for (int i = 0; i < 100 && !stalled; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    healthz = service.HandleHttp("/healthz", "");
    stalled = healthz.status == 503;
  }
  ASSERT_TRUE(stalled);
  EXPECT_NE(healthz.body.find("stalled"), std::string::npos);

  std::vector<obs::ShardHealthSnapshot> health = service.Health();
  int stalled_shards = 0;
  for (const obs::ShardHealthSnapshot& h : health) {
    if (h.health == obs::ShardHealth::kStalled) {
      ++stalled_shards;
      EXPECT_NE(h.reason.find("ingest stalled"), std::string::npos);
    }
  }
  EXPECT_EQ(stalled_shards, 1);

  // Releasing the worker recovers the verdict.
  blocker.Release();
  ASSERT_TRUE(service.Flush().ok());
  EXPECT_EQ(service.HandleHttp("/healthz", "").status, 200);
}

/// The `"health":…,"reason":"…"` head of each /statusz shard entry.
std::vector<std::string> StatuszReasons(const Service& service) {
  const std::string body = service.HandleHttp("/statusz", "").body;
  std::vector<std::string> out;
  for (size_t pos = body.find("\"health\":"); pos != std::string::npos;
       pos = body.find("\"health\":", pos + 1)) {
    out.push_back(body.substr(pos, body.find(",\"ingest_rate\"", pos) - pos));
  }
  return out;
}

TEST(ServiceObservabilityTest, GoldenStatuszReasonField) {
  Blocker blocker;
  ServiceOptions options;
  options.num_shards = 1;
  options.queue_capacity = 4;
  options.health.stall_nanos = 3'600'000'000'000;  // never stalls here
  options.engine.ingest_fault_for_test = [&blocker](const Message&) {
    blocker.BlockOnce();
    return Status::OK();
  };
  auto service_or = Service::Open(options);
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  EXPECT_EQ(StatuszReasons(service),
            std::vector<std::string>{R"("health":"ok","reason":"")"});

  // A frozen worker holding four accepted messages: the shard reads
  // degraded, and the reason names the backlog.
  std::vector<Message> messages = TopicStream();
  ASSERT_TRUE(service.Ingest(messages[0]).ok());
  blocker.WaitUntilBlocked();
  for (size_t i = 1; i < messages.size(); ++i) {
    ASSERT_TRUE(service.Ingest(messages[i]).ok());
  }
  EXPECT_EQ(StatuszReasons(service),
            std::vector<std::string>{
                R"("health":"degraded","reason":"queue depth 4 of 4")"});
  blocker.Release();
  ASSERT_TRUE(service.Flush().ok());
}

TEST(ServiceObservabilityTest, HealthzReports503OnStalledWalFlusher) {
  ScopedTempDir dir;
  Blocker blocker;
  ServiceOptions options;
  options.num_shards = 2;
  options.health.stall_nanos = 50'000'000;  // 50 ms
  options.durability.dir = dir.path() + "/wal";
  // Tight group-commit window so the flusher picks the batch up (and
  // freezes inside the hook) promptly.
  options.durability.wal_group_commit_interval_us = 1000;
  options.durability.wal_flush_phase_hook_for_test =
      [&blocker](recovery::WalFlushPhase phase) {
        if (phase == recovery::WalFlushPhase::kDequeued) {
          blocker.BlockOnce();
        }
      };
  auto service_or = Service::Open(options);
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;

  const std::vector<Message> stream = TopicStream();
  for (const Message& msg : stream) {
    ASSERT_TRUE(service.Ingest(msg).ok());
  }
  blocker.WaitUntilBlocked();
  // Let the shard workers apply the whole stream first: a queue still
  // draining (slow under sanitizers) past the threshold would read as
  // an ingest stall, which outranks the flusher's.
  while (service.Stats().messages_ingested < stream.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Records were accepted (shards ingested them) but the flusher froze
  // after dequeuing: pending bytes stay up, the heartbeat goes stale,
  // and within one evaluation past the threshold the shard must read
  // as WAL-stalled.
  bool stalled = false;
  obs::HttpResponse healthz;
  for (int i = 0; i < 100 && !stalled; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    healthz = service.HandleHttp("/healthz", "");
    stalled = healthz.status == 503;
  }
  ASSERT_TRUE(stalled);
  EXPECT_NE(healthz.body.find("wal flusher"), std::string::npos);

  blocker.Release();
  ASSERT_TRUE(service.Flush().ok());  // durability barrier drains
  EXPECT_EQ(service.HandleHttp("/healthz", "").status, 200);
}

TEST(ServiceObservabilityTest, HealthGaugesAppearInMetrics) {
  auto service_or = Service::Open({.num_shards = 2});
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  ASSERT_TRUE(
      service.Ingest(MakeMessage(1, kTestEpoch, "alice", {}, {}, {"redsox"}))
          .ok());
  const std::string text = service.HandleHttp("/metrics", "").body;
  EXPECT_NE(text.find("microprov_shard_health{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("microprov_shard_health{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(text.find("microprov_shard_ingest_rate"), std::string::npos);
  EXPECT_NE(text.find("microprov_shard_query_rate"), std::string::npos);
  EXPECT_NE(text.find("microprov_shard_queue_high_watermark"),
            std::string::npos);
  EXPECT_NE(text.find("microprov_shard_backpressure_stall_nanos"),
            std::string::npos);
}

}  // namespace
}  // namespace microprov
