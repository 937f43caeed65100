#include "obs/query_trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/string_util.h"

namespace microprov {
namespace obs {
namespace {

QueryTraceEvent MakeEvent(uint64_t id, uint64_t total_nanos,
                          const std::string& text = "#redsox") {
  QueryTraceEvent event;
  event.query_id = id;
  event.text = text;
  event.now = 1251763200;
  event.k = 10;
  event.total_bundles = 42;
  event.result_count = 3;
  event.total_nanos = total_nanos;

  QueryShardTrace shard;
  shard.shard = 1;
  shard.term_ids = {7, -1, 12};
  shard.candidates = 9;
  shard.archived_candidates = 2;
  shard.examined = 11;
  shard.pruned = 4;
  shard.results = 3;
  event.shards.push_back(shard);

  SpanRecord root;
  root.id = 1;
  root.name = "search";
  root.start_nanos = 0;
  root.duration_nanos = static_cast<int64_t>(total_nanos);
  event.spans.push_back(root);
  SpanRecord child;
  child.id = 2;
  child.parent = 1;
  child.name = "shard_search";
  child.shard = 1;
  child.start_nanos = 100;
  child.duration_nanos = 900;
  event.spans.push_back(child);
  return event;
}

TEST(QueryTraceSinkTest, SamplingCadence) {
  QueryTraceSink sink(16, /*sample_every=*/3, /*slow_query_nanos=*/0);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) {
    if (sink.ShouldSample()) ++sampled;
  }
  EXPECT_EQ(sampled, 3);

  QueryTraceSink always(16, 1, 0);
  EXPECT_TRUE(always.ShouldSample());
  EXPECT_TRUE(always.ShouldSample());

  QueryTraceSink never(16, 0, 0);
  EXPECT_FALSE(never.ShouldSample());
  EXPECT_FALSE(never.ShouldSample());
}

TEST(QueryTraceSinkTest, RecordRoutesSampledSlowAndDropped) {
  QueryTraceSink sink(8, 1, /*slow_query_nanos=*/1'000'000);

  // Fast + sampled: main ring only.
  sink.Record(MakeEvent(1, 500), /*sampled=*/true);
  // Fast + sampled out: dropped.
  sink.Record(MakeEvent(2, 500), /*sampled=*/false);
  // Slow + sampled out: slow ring anyway.
  sink.Record(MakeEvent(3, 2'000'000), /*sampled=*/false);
  // Slow + sampled: both rings.
  sink.Record(MakeEvent(4, 5'000'000), /*sampled=*/true);

  std::vector<QueryTraceEvent> main = sink.Snapshot();
  std::vector<QueryTraceEvent> slow = sink.SlowSnapshot();
  ASSERT_EQ(main.size(), 2u);
  EXPECT_EQ(main[0].query_id, 1u);
  EXPECT_FALSE(main[0].slow);
  EXPECT_EQ(main[1].query_id, 4u);
  EXPECT_TRUE(main[1].slow);

  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].query_id, 3u);
  EXPECT_EQ(slow[1].query_id, 4u);
  EXPECT_TRUE(slow[0].slow);

  EXPECT_EQ(sink.total_recorded(), 2u);
  EXPECT_EQ(sink.slow_recorded(), 2u);
  EXPECT_EQ(sink.sampled_out(), 1u);
}

TEST(QueryTraceSinkTest, SlowDisabledNeverMarksSlow) {
  QueryTraceSink sink(4, 1, 0);
  sink.Record(MakeEvent(1, 60'000'000'000ull), /*sampled=*/true);
  std::vector<QueryTraceEvent> main = sink.Snapshot();
  ASSERT_EQ(main.size(), 1u);
  EXPECT_FALSE(main[0].slow);
  EXPECT_TRUE(sink.SlowSnapshot().empty());
}

TEST(QueryTraceSinkTest, RingEvictsOldest) {
  QueryTraceSink sink(3, 1, 0);
  for (uint64_t id = 1; id <= 5; ++id) {
    sink.Record(MakeEvent(id, 100), /*sampled=*/true);
  }
  std::vector<QueryTraceEvent> main = sink.Snapshot();
  ASSERT_EQ(main.size(), 3u);
  EXPECT_EQ(main[0].query_id, 3u);
  EXPECT_EQ(main[2].query_id, 5u);
  EXPECT_EQ(sink.total_recorded(), 5u);
}

TEST(QueryTraceSinkTest, NextQueryIdIsMonotonic) {
  QueryTraceSink sink(4, 1, 0);
  EXPECT_EQ(sink.NextQueryId(), 1u);
  EXPECT_EQ(sink.NextQueryId(), 2u);
  EXPECT_EQ(sink.NextQueryId(), 3u);
}

TEST(QueryTraceSinkTest, JsonlRoundTripsEverything) {
  QueryTraceSink sink(4, 1, /*slow_query_nanos=*/1'000);
  QueryTraceEvent event =
      MakeEvent(7, 123'456, "tsunami \"quoted\" \\slash\n#tag");
  sink.Record(event, /*sampled=*/true);

  std::string jsonl = sink.ToJsonl();
  auto parsed_or = QueryTraceSink::FromJsonl(jsonl);
  ASSERT_TRUE(parsed_or.ok()) << parsed_or.status().ToString();
  ASSERT_EQ(parsed_or->size(), 1u);
  const QueryTraceEvent& got = (*parsed_or)[0];

  EXPECT_EQ(got.query_id, 7u);
  EXPECT_EQ(got.text, "tsunami \"quoted\" \\slash\n#tag");
  EXPECT_EQ(got.now, 1251763200);
  EXPECT_EQ(got.k, 10u);
  EXPECT_EQ(got.total_bundles, 42u);
  EXPECT_EQ(got.result_count, 3u);
  EXPECT_EQ(got.total_nanos, 123'456u);
  EXPECT_TRUE(got.slow);

  ASSERT_EQ(got.shards.size(), 1u);
  EXPECT_EQ(got.shards[0].shard, 1u);
  EXPECT_EQ(got.shards[0].term_ids, (std::vector<int64_t>{7, -1, 12}));
  EXPECT_EQ(got.shards[0].candidates, 9u);
  EXPECT_EQ(got.shards[0].archived_candidates, 2u);
  EXPECT_EQ(got.shards[0].examined, 11u);
  EXPECT_EQ(got.shards[0].pruned, 4u);
  EXPECT_EQ(got.shards[0].results, 3u);

  // The span tree reconstructs: ids, parent links, shard tags, times.
  ASSERT_EQ(got.spans.size(), 2u);
  EXPECT_EQ(got.spans[0].id, 1u);
  EXPECT_EQ(got.spans[0].parent, 0u);
  EXPECT_EQ(got.spans[0].name, "search");
  EXPECT_EQ(got.spans[0].shard, kSpanNoShard);
  EXPECT_EQ(got.spans[1].id, 2u);
  EXPECT_EQ(got.spans[1].parent, 1u);
  EXPECT_EQ(got.spans[1].name, "shard_search");
  EXPECT_EQ(got.spans[1].shard, 1u);
  EXPECT_EQ(got.spans[1].start_nanos, 100);
  EXPECT_EQ(got.spans[1].duration_nanos, 900);
}

TEST(QueryTraceSinkTest, FromJsonlDefaultsPruneFieldsWhenAbsent) {
  // Trace files written before the prune counters existed still parse;
  // the missing fields default to zero.
  const char* line =
      "{\"query\":1,\"text\":\"x\",\"now\":0,\"k\":5,\"total_bundles\":1,"
      "\"results\":1,\"total_nanos\":10,\"slow\":false,"
      "\"shards\":[{\"shard\":0,\"terms\":[3],\"candidates\":4,"
      "\"archived\":1,\"results\":1}],\"spans\":[]}\n";
  auto parsed_or = QueryTraceSink::FromJsonl(line);
  ASSERT_TRUE(parsed_or.ok()) << parsed_or.status().ToString();
  ASSERT_EQ(parsed_or->size(), 1u);
  ASSERT_EQ((*parsed_or)[0].shards.size(), 1u);
  EXPECT_EQ((*parsed_or)[0].shards[0].candidates, 4u);
  EXPECT_EQ((*parsed_or)[0].shards[0].examined, 0u);
  EXPECT_EQ((*parsed_or)[0].shards[0].pruned, 0u);
}

TEST(QueryTraceSinkTest, FromJsonlRejectsMalformedLines) {
  EXPECT_FALSE(QueryTraceSink::FromJsonl("not json").ok());
  EXPECT_FALSE(QueryTraceSink::FromJsonl("{\"query\":}").ok());
  // Blank lines are fine.
  auto empty_or = QueryTraceSink::FromJsonl("\n\n");
  ASSERT_TRUE(empty_or.ok());
  EXPECT_TRUE(empty_or->empty());
}

TEST(QueryTraceSinkTest, GoldenJsonlAndSlowJsonl) {
  // Pins the whole /debug/traces and /debug/slow dumps, byte for byte:
  // an escaped query text, two shards and a nested span tree.
  QueryTraceSink sink(4, 1, /*slow_query_nanos=*/1'000'000);
  const std::string text = "a\"b\\c\td\x01" "e";
  for (uint64_t id = 1; id <= 3; ++id) {
    QueryTraceEvent event = MakeEvent(id, id == 1 ? 5'000 : 2'000'000, text);
    QueryShardTrace shard0;
    shard0.term_ids = {3, -1};
    shard0.candidates = 5;
    shard0.examined = 5;
    shard0.results = 2;
    event.shards.insert(event.shards.begin(), shard0);
    SpanRecord score;
    score.id = 3;
    score.parent = 2;
    score.name = "score";
    score.shard = 1;
    score.start_nanos = 150;
    score.duration_nanos = 700;
    event.spans.push_back(score);
    // Query 2 is sampled out: it reaches only the slow ring.
    sink.Record(std::move(event), /*sampled=*/id != 2);
  }
  // Each dump line differs only in id, latency and the slow flag.
  auto line = [](unsigned long long id, unsigned long long nanos) {
    return StringPrintf(
        R"({"query":%llu,"text":"a\"b\\c\td\u0001e","now":1251763200,"k":10)"
        R"(,"total_bundles":42,"results":3,"total_nanos":%llu,"slow":%s)"
        R"(,"shards":[{"shard":0,"terms":[3,-1],"candidates":5,"archived":0)"
        R"(,"examined":5,"pruned":0,"results":2},{"shard":1,"terms":[7,-1)"
        R"(,12],"candidates":9,"archived":2,"examined":11,"pruned":4)"
        R"(,"results":3}],"spans":[{"id":1,"parent":0,"name":"search")"
        R"(,"shard":-1,"start_nanos":0,"duration_nanos":%llu},{"id":2)"
        R"(,"parent":1,"name":"shard_search","shard":1,"start_nanos":100)"
        R"(,"duration_nanos":900},{"id":3,"parent":2,"name":"score")"
        R"(,"shard":1,"start_nanos":150,"duration_nanos":700}]})" "\n",
        id, nanos, nanos >= 1'000'000 ? "true" : "false", nanos);
  };
  EXPECT_EQ(sink.ToJsonl(), line(1, 5'000) + line(3, 2'000'000));
  EXPECT_EQ(sink.SlowJsonl(), line(2, 2'000'000) + line(3, 2'000'000));
}

TEST(QueryTraceSinkTest, ZeroCapacityStillCapturesSlow) {
  QueryTraceSink sink(0, 1, /*slow_query_nanos=*/100);
  EXPECT_FALSE(sink.ShouldSample());  // no sampled ring to fill
  sink.Record(MakeEvent(1, 500), /*sampled=*/false);
  EXPECT_TRUE(sink.Snapshot().empty());
  EXPECT_EQ(sink.SlowSnapshot().size(), 1u);
}

}  // namespace
}  // namespace obs
}  // namespace microprov
