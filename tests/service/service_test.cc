#include "service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::kTestEpoch;
using testing_util::MakeMessage;
using testing_util::MakeRetweet;
using testing_util::ScopedTempDir;

std::vector<Message> SmallStream() {
  // Three topics, clearly separated; one is an RT chain. The chain's
  // root carries no hashtag, so it routes by author — the same key its
  // retweets route by (target user), keeping the cascade on one shard.
  std::vector<Message> messages;
  messages.push_back(
      MakeMessage(1, kTestEpoch, "alice", {}, {}, {"redsox"}));
  messages.push_back(
      MakeRetweet(2, kTestEpoch + 30, "bob", 1, "alice"));
  messages.push_back(
      MakeRetweet(3, kTestEpoch + 60, "carol", 1, "alice"));
  messages.push_back(
      MakeMessage(4, kTestEpoch + 90, "dave", {"tsunami"}));
  messages.push_back(
      MakeMessage(5, kTestEpoch + 120, "erin", {"tsunami"}));
  messages.push_back(
      MakeMessage(6, kTestEpoch + 150, "frank", {"cics"}));
  return messages;
}

TEST(ServiceTest, OpenRejectsBadOptions) {
  EXPECT_FALSE(Service::Open({.num_shards = 0}).ok());
  EXPECT_FALSE(
      Service::Open({.num_shards = 2, .queue_capacity = 0}).ok());
}

TEST(ServiceTest, OpenValidatesMemoryBudget) {
  // Non-power-of-two arena block.
  ServiceOptions bad_block;
  bad_block.num_shards = 2;
  bad_block.engine.memory.arena_block_bytes = 5000;
  auto status = Service::Open(bad_block).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // Arena budget smaller than two blocks.
  ServiceOptions bad_arena;
  bad_arena.num_shards = 2;
  bad_arena.engine.memory.arena_block_bytes = 64u << 10;
  bad_arena.engine.memory.index_arena_bytes = 64u << 10;
  EXPECT_EQ(Service::Open(bad_arena).status().code(),
            StatusCode::kInvalidArgument);

  // Pool byte budget below the floor.
  ServiceOptions bad_pool;
  bad_pool.num_shards = 2;
  bad_pool.engine.memory.pool_bytes = 1024;
  EXPECT_EQ(Service::Open(bad_pool).status().code(),
            StatusCode::kInvalidArgument);

  // A consistent budget opens, and the total divides across shards with
  // per-shard floors that keep each slice valid.
  ServiceOptions good;
  good.num_shards = 2;
  good.engine.memory.pool_bytes = 16u << 20;
  good.engine.memory.index_arena_bytes = 8u << 20;
  good.engine.memory.arena_block_bytes = 1u << 20;
  auto service_or = Service::Open(good);
  ASSERT_TRUE(service_or.ok());
  const EngineOptions& slice = (*service_or)->sharded().shard(0).options();
  EXPECT_EQ(slice.memory.index_arena_bytes, 4u << 20);
  ASSERT_TRUE(slice.memory.Validate().ok());
}

TEST(ServiceTest, StatsReportMemoryBreakdown) {
  auto service_or = Service::Open({.num_shards = 2});
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  for (const Message& msg : SmallStream()) {
    ASSERT_TRUE(service.Ingest(msg).ok());
  }
  ASSERT_TRUE(service.Drain().ok());  // refreshes the memory gauges
  ServiceStats stats = service.Stats();
  // Bundles were drained to nowhere (no archive), but the index, arena,
  // and dictionary survive; the itemized view sums across shards and
  // stays consistent with the direct post-quiesce read.
  EXPECT_GT(stats.memory.summary_index_bytes, 0u);
  EXPECT_GT(stats.memory.arena_bytes, 0u);
  EXPECT_GT(stats.memory.dictionary_bytes, 0u);
  EXPECT_EQ(stats.memory.text_index_bytes, 0u);
  MemoryBreakdown direct = service.sharded().MemoryUsage();
  EXPECT_EQ(stats.memory.arena_bytes, direct.arena_bytes);
  EXPECT_EQ(stats.memory.total(), stats.memory_bytes);
}

TEST(ServiceTest, IngestSearchDrainLifecycle) {
  auto service_or = Service::Open({.num_shards = 2});
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;

  for (const Message& msg : SmallStream()) {
    StatusOr<IngestResult> result = service.Ingest(msg);
    ASSERT_TRUE(result.ok());
    EXPECT_LT(result->shard, 2u);
  }
  // The service clock follows the newest accepted message.
  EXPECT_EQ(service.Now(), kTestEpoch + 150);

  // Search quiesces the pipeline on its own — no explicit Flush needed.
  auto results_or = service.Search({.text = "redsox", .k = 5});
  ASSERT_TRUE(results_or.ok());
  ASSERT_FALSE(results_or->empty());
  EXPECT_EQ((*results_or)[0].size, 3u);

  ASSERT_TRUE(service.Drain().ok());
  ASSERT_TRUE(service.Drain().ok());  // idempotent

  // Search still works after drain; ingest is refused.
  auto post_drain_or = service.Search({.text = "#tsunami", .k = 5});
  ASSERT_TRUE(post_drain_or.ok());
  ASSERT_FALSE(post_drain_or->empty());
  EXPECT_EQ((*post_drain_or)[0].size, 2u);
  EXPECT_FALSE(
      service.Ingest(MakeMessage(7, kTestEpoch + 200, "gus", {"late"}))
          .ok());
}

TEST(ServiceTest, SearchDefaultsNowToServiceClock) {
  auto service_or = Service::Open({.num_shards = 2});
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  for (const Message& msg : SmallStream()) {
    ASSERT_TRUE(service.Ingest(msg).ok());
  }
  // Identical queries, one with explicit now, one defaulted: identical
  // freshness term, identical scores.
  auto defaulted_or = service.Search({.text = "redsox", .k = 5});
  auto explicit_or =
      service.Search({.text = "redsox", .k = 5, .now = service.Now()});
  ASSERT_TRUE(defaulted_or.ok());
  ASSERT_TRUE(explicit_or.ok());
  ASSERT_EQ(defaulted_or->size(), explicit_or->size());
  for (size_t i = 0; i < defaulted_or->size(); ++i) {
    EXPECT_DOUBLE_EQ((*defaulted_or)[i].score, (*explicit_or)[i].score);
  }
}

TEST(ServiceTest, StatsAggregateAcrossShards) {
  auto service_or = Service::Open({.num_shards = 4});
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  auto messages = SmallStream();
  for (const Message& msg : messages) {
    ASSERT_TRUE(service.Ingest(msg).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.messages_ingested, messages.size());
  EXPECT_EQ(stats.live_bundles, 3u);  // redsox, tsunami, cics
  EXPECT_EQ(stats.archived_bundles, 0u);
  EXPECT_GT(stats.memory_bytes, 0u);
  ASSERT_EQ(stats.shards.size(), 4u);
  uint64_t per_shard_total = 0;
  for (const ShardStatsSnapshot& shard : stats.shards) {
    per_shard_total += shard.ingested;
  }
  EXPECT_EQ(per_shard_total, messages.size());
}

TEST(ServiceTest, ArchiveDirPersistsBundlesAndServesThem) {
  ScopedTempDir dir;
  ServiceOptions options;
  options.num_shards = 2;
  options.archive_dir = dir.path() + "/service";
  auto service_or = Service::Open(options);
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  for (const Message& msg : SmallStream()) {
    ASSERT_TRUE(service.Ingest(msg).ok());
  }
  ASSERT_TRUE(service.Drain().ok());

  // Drain moved every live bundle into the per-shard stores...
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.live_bundles, 0u);
  EXPECT_EQ(stats.archived_bundles, 3u);

  // ...and queries keep answering, now from disk.
  auto results_or = service.Search({.text = "redsox", .k = 5});
  ASSERT_TRUE(results_or.ok());
  ASSERT_FALSE(results_or->empty());
  EXPECT_TRUE((*results_or)[0].archived);
  EXPECT_EQ((*results_or)[0].size, 3u);
}

TEST(ServiceTest, RetweetChainStaysIntactThroughSharding) {
  auto service_or = Service::Open({.num_shards = 4});
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  for (const Message& msg : SmallStream()) {
    ASSERT_TRUE(service.Ingest(msg).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  // The redsox RTs (msgs 2, 3 -> msg 1) routed by target user, so the
  // bundle holds the full cascade on one shard.
  auto results_or = service.Search({.text = "redsox", .k = 1});
  ASSERT_TRUE(results_or.ok());
  ASSERT_FALSE(results_or->empty());
  const BundleSearchResult& hit = (*results_or)[0];
  const Bundle* bundle =
      service.sharded().shard(hit.shard).pool().Get(hit.bundle);
  ASSERT_NE(bundle, nullptr);
  EXPECT_EQ(bundle->size(), 3u);
  bool found_rt = false;
  for (const Edge& edge : bundle->Edges()) {
    if (edge.type == ConnectionType::kRt && edge.child == 3 &&
        edge.parent == 1) {
      found_rt = true;
    }
  }
  EXPECT_TRUE(found_rt);
}

// Minimal Prometheus text-exposition parser: validates line shape and
// returns (a) the family -> kind map from # TYPE lines and (b) every
// counter sample as full-series-name -> value.
struct ParsedScrape {
  std::map<std::string, std::string> families;  // family -> kind
  std::map<std::string, uint64_t> counters;     // "name{labels}" -> value
};

void ParsePrometheus(const std::string& text, ParsedScrape* out) {
  ParsedScrape& parsed = *out;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      std::istringstream meta(line);
      std::string hash, keyword, family, rest;
      meta >> hash >> keyword >> family >> rest;
      ASSERT_TRUE(keyword == "HELP" || keyword == "TYPE") << line;
      if (keyword == "TYPE") {
        ASSERT_TRUE(rest == "counter" || rest == "gauge" ||
                    rest == "summary")
            << line;
        parsed.families[family] = rest;
      }
      continue;
    }
    // Sample line: name{labels} value  |  name value
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string series = line.substr(0, space);
    std::string value = line.substr(space + 1);
    ASSERT_FALSE(series.empty()) << line;
    ASSERT_FALSE(value.empty()) << line;
    std::string family = series.substr(0, series.find('{'));
    auto it = parsed.families.find(family);
    if (it == parsed.families.end()) {
      // Summary auxiliary series: strip _sum/_count to find the family.
      for (const char* suffix : {"_sum", "_count"}) {
        std::string stem = family;
        size_t pos = stem.rfind(suffix);
        if (pos != std::string::npos && pos == stem.size() - strlen(suffix)) {
          stem.resize(pos);
          it = parsed.families.find(stem);
          if (it != parsed.families.end()) break;
        }
      }
    }
    ASSERT_NE(it, parsed.families.end())
        << "sample without # TYPE: " << line;
    if (it->second == "counter" && series.substr(0, family.size()) == family) {
      parsed.counters[series] = std::stoull(value);
    }
  }
}

TEST(ServiceMetricsTest, QueryRequestsCountOncePerSearch) {
  auto service_or = Service::Open({.num_shards = 4});
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  for (const Message& msg : SmallStream()) {
    ASSERT_TRUE(service.Ingest(msg).ok());
  }
  constexpr uint64_t kSearches = 7;
  for (uint64_t i = 0; i < kSearches; ++i) {
    ASSERT_TRUE(service.Search({.text = "redsox", .k = 5}).ok());
  }
  ParsedScrape scrape;
  ParsePrometheus(service.MetricsText(), &scrape);
  EXPECT_EQ(scrape.counters.at("microprov_query_requests_total"), kSearches);
  obs::MetricsRegistry* registry = service.metrics();
  EXPECT_EQ(registry->GetHistogram("microprov_query_latency_nanos", "")
                ->Snapshot()
                .count,
            kSearches);
  const obs::HistogramStats fanout =
      registry->GetHistogram("microprov_query_fanout", "")->Snapshot();
  EXPECT_EQ(fanout.count, kSearches);
  EXPECT_EQ(fanout.max, 4u);
}

TEST(ServiceMetricsTest, ScrapeCoversEveryLayerAndCountersAreMonotonic) {
  ScopedTempDir dir;
  ServiceOptions options;
  options.num_shards = 2;
  options.archive_dir = dir.path() + "/metrics";
  auto service_or = Service::Open(options);
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;

  for (const Message& msg : SmallStream()) {
    ASSERT_TRUE(service.Ingest(msg).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  // Touch the query path so its metrics carry data too.
  ASSERT_TRUE(service.Search({.text = "redsox", .k = 5}).ok());

  ParsedScrape first;
  ParsePrometheus(service.MetricsText(), &first);

  // The deployment must expose at least 12 distinct metric families,
  // spanning engine, pool, summary index, shard queues, query, storage.
  EXPECT_GE(first.families.size(), 12u);
  for (const char* family :
       {"microprov_engine_messages_total", "microprov_ingest_stage_nanos",
        "microprov_engine_memory_bytes", "microprov_pool_bundles",
        "microprov_pool_created_total", "microprov_index_keys",
        "microprov_index_candidates", "microprov_shard_ingested_total",
        "microprov_shard_queue_depth", "microprov_query_requests_total",
        "microprov_query_latency_nanos", "microprov_store_puts_total"}) {
    EXPECT_TRUE(first.families.count(family)) << "missing " << family;
  }

  // Counters actually counted this batch.
  EXPECT_EQ(first.counters.at("microprov_engine_messages_total"), 6u);
  // A Search is one request, however many shards it reaches.
  EXPECT_EQ(first.counters.at("microprov_query_requests_total"), 1u);

  // Second ingest batch: every counter is monotonically non-decreasing,
  // and the message counter strictly grew.
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(service
                    .Ingest(MakeMessage(100 + i, kTestEpoch + 300 + i,
                                        "hank", {"redsox"}))
                    .ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  ParsedScrape second;
  ParsePrometheus(service.MetricsText(), &second);
  for (const auto& [series, value] : first.counters) {
    auto it = second.counters.find(series);
    ASSERT_NE(it, second.counters.end()) << series << " disappeared";
    EXPECT_GE(it->second, value) << series << " went backwards";
  }
  EXPECT_EQ(second.counters.at("microprov_engine_messages_total"), 10u);

  // JSON export covers the same instruments.
  std::string json = service.MetricsJson();
  EXPECT_NE(json.find("microprov_engine_messages_total"),
            std::string::npos);
  EXPECT_NE(json.find("\"count\":"), std::string::npos);
}

TEST(ServiceStatsQueueTest, DepthAndBackpressureAggregateAndSettle) {
  auto service_or = Service::Open({.num_shards = 3});
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  auto messages = SmallStream();
  for (const Message& msg : messages) {
    ASSERT_TRUE(service.Ingest(msg).ok());
  }
  ServiceStats mid = service.Stats();
  // Totals are exactly the sum of the per-shard snapshots.
  size_t depth_sum = 0;
  uint64_t stalls_sum = 0;
  uint64_t enqueued_sum = 0;
  for (const ShardStatsSnapshot& shard : mid.shards) {
    depth_sum += shard.queue_depth;
    stalls_sum += shard.blocked_pushes;
    enqueued_sum += shard.enqueued;
  }
  EXPECT_EQ(mid.queue_depth, depth_sum);
  EXPECT_EQ(mid.backpressure_stalls, stalls_sum);
  EXPECT_EQ(enqueued_sum, messages.size());

  ASSERT_TRUE(service.Drain().ok());
  ServiceStats after = service.Stats();
  // Drained pipeline: queues empty, every accepted message ingested.
  EXPECT_EQ(after.queue_depth, 0u);
  EXPECT_EQ(after.messages_ingested, messages.size());
  for (const ShardStatsSnapshot& shard : after.shards) {
    EXPECT_EQ(shard.queue_depth, 0u);
    EXPECT_EQ(shard.enqueued, shard.ingested);
  }
  // Stall count never decreases across the drain barrier.
  EXPECT_GE(after.backpressure_stalls, mid.backpressure_stalls);
}

TEST(ServiceTraceTest, TraceRoundTripsThroughJsonl) {
  ServiceOptions options;
  options.num_shards = 2;
  options.trace_capacity = 64;
  auto service_or = Service::Open(options);
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  auto messages = SmallStream();
  for (const Message& msg : messages) {
    ASSERT_TRUE(service.Ingest(msg).ok());
  }
  ASSERT_TRUE(service.Flush().ok());

  ASSERT_NE(service.trace(), nullptr);
  StatusOr<std::vector<obs::IngestTraceEvent>> parsed =
      obs::TraceSink::FromJsonl(service.TraceJsonl());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), messages.size());

  // Every ingested message traced exactly once (shard workers interleave,
  // so order across shards is not fixed).
  std::set<int64_t> seen;
  for (const obs::IngestTraceEvent& event : *parsed) {
    EXPECT_LT(event.shard, 2u);
    seen.insert(event.message);
  }
  EXPECT_EQ(seen.size(), messages.size());

  // Message 5 joined message 4's tsunami bundle: its event must carry
  // the scored Eq. 1 candidates and the winning score.
  for (const obs::IngestTraceEvent& event : *parsed) {
    if (event.message != 5) continue;
    EXPECT_FALSE(event.created);
    ASSERT_FALSE(event.candidates.empty());
    bool found = false;
    for (const obs::TraceCandidate& candidate : event.candidates) {
      if (candidate.bundle == event.chosen) {
        found = true;
        EXPECT_GT(candidate.score, 0.0);
        EXPECT_DOUBLE_EQ(candidate.score, event.score);
      }
    }
    EXPECT_TRUE(found);
  }
}

// TSan target (scripts/tier1.sh): scrapes (the /metrics handler runs
// Health() then MetricsText()), Stats(), and the trace ring all racing a
// live sharded ingest.
TEST(ServiceConcurrencyTest, ScrapesAndStatsDuringIngest) {
  ServiceOptions options;
  options.num_shards = 3;
  options.queue_capacity = 16;  // small queue: exercise backpressure
  options.trace_capacity = 128;
  auto service_or = Service::Open(options);
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;

  constexpr int kMessages = 600;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    do {
      ServiceStats stats = service.Stats();
      EXPECT_LE(stats.queue_depth, 3u * 16u);
      std::string text = service.MetricsText();
      EXPECT_FALSE(text.empty());
      obs::HttpResponse scrape = service.HandleHttp("/metrics", "");
      EXPECT_EQ(scrape.status, 200);
      EXPECT_FALSE(scrape.body.empty());
      service.TraceJsonl();
    } while (!done.load());
  });
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(service
                    .Ingest(MakeMessage(
                        i, kTestEpoch + i, "u" + std::to_string(i % 7),
                        {"tag" + std::to_string(i % 5)}))
                    .ok());
  }
  ASSERT_TRUE(service.Drain().ok());
  done.store(true);
  reader.join();

  EXPECT_EQ(service.Stats().messages_ingested,
            static_cast<uint64_t>(kMessages));
  // The ring kept the most recent decisions.
  EXPECT_EQ(service.trace()->Snapshot().size(), 128u);
  EXPECT_EQ(service.trace()->total_recorded(),
            static_cast<uint64_t>(kMessages));
}

}  // namespace
}  // namespace microprov
