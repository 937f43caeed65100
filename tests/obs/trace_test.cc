#include "obs/trace.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace microprov {
namespace obs {
namespace {

IngestTraceEvent MakeEvent(int64_t message) {
  IngestTraceEvent event;
  event.message = message;
  event.date = 1251763200 + message;
  event.shard = static_cast<uint32_t>(message % 4);
  event.chosen = static_cast<uint64_t>(message * 10);
  event.created = (message % 2) == 0;
  event.score = 0.25 * static_cast<double>(message);
  event.parent = message - 1;
  event.connection = static_cast<int>(message % 3);
  event.candidates.push_back({static_cast<uint64_t>(message * 10), 0.75});
  event.candidates.push_back({static_cast<uint64_t>(message * 10 + 1), 0.125});
  return event;
}

TEST(TraceSinkTest, RecordsAndSnapshotsInOrder) {
  TraceSink sink(8);
  EXPECT_EQ(sink.capacity(), 8u);
  for (int64_t i = 0; i < 3; ++i) sink.Record(MakeEvent(i));
  std::vector<IngestTraceEvent> events = sink.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].message, 0);
  EXPECT_EQ(events[1].message, 1);
  EXPECT_EQ(events[2].message, 2);
  EXPECT_EQ(sink.total_recorded(), 3u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSinkTest, RingWrapsKeepingNewestOldestFirst) {
  TraceSink sink(4);
  for (int64_t i = 0; i < 10; ++i) sink.Record(MakeEvent(i));
  std::vector<IngestTraceEvent> events = sink.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].message, 6);
  EXPECT_EQ(events[1].message, 7);
  EXPECT_EQ(events[2].message, 8);
  EXPECT_EQ(events[3].message, 9);
  EXPECT_EQ(sink.total_recorded(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
}

TEST(TraceSinkTest, EventToJsonIncludesCandidateScores) {
  IngestTraceEvent event = MakeEvent(5);
  std::string json = TraceSink::EventToJson(event);
  EXPECT_NE(json.find("\"msg\":5"), std::string::npos);
  EXPECT_NE(json.find("\"candidates\":["), std::string::npos);
  EXPECT_NE(json.find("\"bundle\":50"), std::string::npos);
  EXPECT_NE(json.find("0.75"), std::string::npos);
  EXPECT_NE(json.find("0.125"), std::string::npos);
}

TEST(TraceSinkTest, JsonlRoundTrips) {
  TraceSink sink(16);
  for (int64_t i = 0; i < 5; ++i) sink.Record(MakeEvent(i));
  std::string jsonl = sink.ToJsonl();

  StatusOr<std::vector<IngestTraceEvent>> parsed =
      TraceSink::FromJsonl(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 5u);
  for (int64_t i = 0; i < 5; ++i) {
    const IngestTraceEvent& got = (*parsed)[i];
    IngestTraceEvent want = MakeEvent(i);
    EXPECT_EQ(got.message, want.message);
    EXPECT_EQ(got.date, want.date);
    EXPECT_EQ(got.shard, want.shard);
    EXPECT_EQ(got.chosen, want.chosen);
    EXPECT_EQ(got.created, want.created);
    EXPECT_EQ(got.score, want.score);  // exact: %.17g round-trips doubles
    EXPECT_EQ(got.parent, want.parent);
    EXPECT_EQ(got.connection, want.connection);
    ASSERT_EQ(got.candidates.size(), want.candidates.size());
    for (size_t c = 0; c < want.candidates.size(); ++c) {
      EXPECT_EQ(got.candidates[c].bundle, want.candidates[c].bundle);
      EXPECT_EQ(got.candidates[c].score, want.candidates[c].score);
    }
  }
}

TEST(TraceSinkTest, FromJsonlSkipsBlankLinesAndRejectsGarbage) {
  IngestTraceEvent event = MakeEvent(1);
  std::string jsonl = TraceSink::EventToJson(event) + "\n\n" +
                      TraceSink::EventToJson(MakeEvent(2)) + "\n";
  StatusOr<std::vector<IngestTraceEvent>> parsed =
      TraceSink::FromJsonl(jsonl);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 2u);

  EXPECT_FALSE(TraceSink::FromJsonl("not json\n").ok());
}

TEST(TraceSinkTest, ShouldSampleFollowsCadence) {
  TraceSink sink(8, /*sample_every=*/3);
  EXPECT_EQ(sink.sample_every(), 3u);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) {
    if (sink.ShouldSample()) ++sampled;
  }
  EXPECT_EQ(sampled, 3);

  TraceSink all(8);  // default: every message, the historical behavior
  EXPECT_TRUE(all.ShouldSample());
  EXPECT_TRUE(all.ShouldSample());

  TraceSink none(8, /*sample_every=*/0);
  EXPECT_FALSE(none.ShouldSample());
  EXPECT_FALSE(none.ShouldSample());
}

TEST(TraceSinkTest, GoldenJsonlAfterWrap) {
  // Pins the whole /debug/traces?ring=ingest dump, byte for byte, after
  // the ring has wrapped: oldest surviving event first, %.17g scores, an
  // empty candidate list on a created bundle.
  TraceSink sink(3);
  for (int64_t i = 0; i < 5; ++i) {
    IngestTraceEvent event = MakeEvent(i);
    if (i == 3) event.score = 0.1;
    if (i == 4) {
      event.candidates.clear();
      event.score = 0;
      event.parent = -1;
    }
    sink.Record(std::move(event));
  }
  EXPECT_EQ(sink.ToJsonl(),
            R"({"msg":2,"date":1251763202,"shard":2,"chosen":20,"created":true)"
            R"(,"score":0.5,"parent":1,"connection":2)"
            R"(,"candidates":[{"bundle":20,"score":0.75},{"bundle":21)"
            R"(,"score":0.125}]})" "\n"
            R"({"msg":3,"date":1251763203,"shard":3,"chosen":30)"
            R"(,"created":false)"
            R"(,"score":0.10000000000000001,"parent":2,"connection":0)"
            R"(,"candidates":[{"bundle":30,"score":0.75},{"bundle":31)"
            R"(,"score":0.125}]})" "\n"
            R"({"msg":4,"date":1251763204,"shard":0,"chosen":40,"created":true)"
            R"(,"score":0,"parent":-1,"connection":1,"candidates":[]})" "\n");
}

TEST(TraceSinkTest, EmptySinkProducesEmptyDump) {
  TraceSink sink(4);
  EXPECT_TRUE(sink.Snapshot().empty());
  EXPECT_TRUE(sink.ToJsonl().empty());
  StatusOr<std::vector<IngestTraceEvent>> parsed = TraceSink::FromJsonl("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(TraceSinkConcurrencyTest, WritersShareOneRingWithAReader) {
  // Every shard worker records into one ingest sink while scrapes read
  // it: counts stay exact and each writer's survivors keep their order.
  constexpr uint32_t kWriters = 4;
  constexpr int64_t kPerWriter = 1000;
  constexpr size_t kCapacity = 64;
  TraceSink sink(kCapacity);
  auto in_writer_order = [](const std::vector<IngestTraceEvent>& events) {
    std::vector<int64_t> last(kWriters, -1);
    for (const IngestTraceEvent& event : events) {
      if (event.message <= last[event.shard]) return false;
      last[event.shard] = event.message;
    }
    return true;
  };
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      EXPECT_TRUE(in_writer_order(sink.Snapshot()));
      StatusOr<std::vector<IngestTraceEvent>> parsed =
          TraceSink::FromJsonl(sink.ToJsonl());
      EXPECT_TRUE(parsed.ok() && in_writer_order(*parsed));
    }
  });
  std::vector<std::thread> writers;
  for (uint32_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&sink, w] {
      for (int64_t i = 0; i < kPerWriter; ++i) {
        IngestTraceEvent event;
        event.shard = w;
        event.message = i;
        sink.Record(std::move(event));
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  done.store(true);
  reader.join();

  EXPECT_EQ(sink.total_recorded(), kWriters * kPerWriter);
  EXPECT_EQ(sink.dropped(), kWriters * kPerWriter - kCapacity);
  std::vector<IngestTraceEvent> events = sink.Snapshot();
  EXPECT_EQ(events.size(), kCapacity);
  EXPECT_TRUE(in_writer_order(events));
}

}  // namespace
}  // namespace obs
}  // namespace microprov
