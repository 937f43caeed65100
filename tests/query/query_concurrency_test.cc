// Thread-safety coverage for the query path, run under TSan by
// scripts/tier1.sh: concurrent flat searches (the former mutable-scratch
// data race), concurrent bundle searches on one processor (thread-local
// query scratch), and Service searches on the shard workers racing live
// ingest, Flush and Checkpoint.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "query/query_processor.h"
#include "service/service.h"
#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::kTestEpoch;

Message TextMessage(MessageId id, Timestamp date, const std::string& user,
                    const std::string& text) {
  Message msg;
  msg.id = id;
  msg.date = date;
  msg.user = user;
  msg.text = text;
  ExtractIndicants(&msg);
  return msg;
}

const char* const kTexts[] = {
    "yankee redsox game tonight #mlb", "tsunami warning issued #alert",
    "concert ticket strike",           "vote tonight #rally",
    "yankee game flood warning",       "redsox ticket #mlb",
};

TEST(QueryConcurrencyTest, FlatSearchesRunConcurrently) {
  MessageSearchIndex index;
  for (int i = 0; i < 200; ++i) {
    index.Add(TextMessage(i + 1, kTestEpoch + i,
                          "user" + std::to_string(i % 7),
                          kTexts[i % std::size(kTexts)]));
  }
  const auto expected = index.Search("yankee game", 10);
  ASSERT_FALSE(expected.empty());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        const auto got = index.Search("yankee game", 10);
        if (got.size() != expected.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < got.size(); ++i) {
          if (got[i].message != expected[i].message ||
              got[i].score != expected[i].score) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(QueryConcurrencyTest, BundleSearchesShareOneProcessor) {
  SimulatedClock clock(kTestEpoch);
  ProvenanceEngine engine(EngineOptions::ForConfig(IndexConfig::kFullIndex),
                          &clock, nullptr);
  for (int i = 0; i < 300; ++i) {
    Message msg = TextMessage(i + 1, kTestEpoch + i * 60,
                              "user" + std::to_string(i % 5),
                              kTexts[i % std::size(kTexts)]);
    clock.Advance(msg.date);
    ASSERT_TRUE(engine.Ingest(msg).ok());
  }
  const Timestamp now = kTestEpoch + kSecondsPerDay;
  BundleQueryProcessor processor(&engine);

  std::vector<std::vector<BundleSearchResult>> expected;
  for (const char* text : kTexts) {
    expected.push_back(
        processor.Search({.text = text, .k = 5, .now = now}));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 40; ++round) {
        const size_t q = (t + round) % std::size(kTexts);
        const auto got =
            processor.Search({.text = kTexts[q], .k = 5, .now = now});
        if (got.size() != expected[q].size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < got.size(); ++i) {
          if (got[i].bundle != expected[q][i].bundle ||
              got[i].score != expected[q][i].score ||
              got[i].summary_words != expected[q][i].summary_words) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(QueryConcurrencyTest, ServiceSearchesRaceLiveIngest) {
  // Searches run on the shard workers between ingest batches while
  // Flush and Checkpoint (WAL on) race both from a third thread. Every
  // Search must see every message whose Ingest returned before it
  // began: a probe tag published after its Ingest returned is found.
  testing_util::ScopedTempDir dir;
  ServiceOptions options;
  options.num_shards = 4;
  options.engine = EngineOptions::ForConfig(IndexConfig::kFullIndex);
  options.durability.dir = dir.path() + "/durable";
  options.durability.checkpoint_every_messages = 400;
  auto service_or = Service::Open(options);
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;

  std::atomic<int> last_probe{-1};
  std::atomic<bool> ingest_done{false};
  std::atomic<bool> ingest_failed{false};
  std::thread ingester([&] {
    for (int i = 0; i < 2000; ++i) {
      std::string text = kTexts[i % std::size(kTexts)];
      const bool probe = i % 25 == 0;
      if (probe) text += " #probe" + std::to_string(i);
      Message msg = TextMessage(i + 1, kTestEpoch + i,
                                "user" + std::to_string(i % 9), text);
      if (!service.Ingest(msg).ok()) {
        ingest_failed.store(true);
        break;
      }
      if (probe) last_probe.store(i);
    }
    ingest_done.store(true);
  });
  std::atomic<bool> barrier_failed{false};
  std::thread barriers([&] {
    // Paced, so the barriers race ingest without starving it of the
    // service lock.
    for (int round = 0; !ingest_done.load(); ++round) {
      const Status status =
          round % 2 == 0 ? service.Flush() : service.Checkpoint();
      if (!status.ok()) barrier_failed.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::atomic<bool> search_failed{false};
  std::atomic<int> probes_checked{0};
  std::atomic<int> probes_missed{0};
  std::thread searcher([&] {
    for (int round = 0; round < 150; ++round) {
      const int probe = last_probe.load();
      const std::string text = probe >= 0
                                   ? "#probe" + std::to_string(probe)
                                   : kTexts[round % std::size(kTexts)];
      auto results_or = service.Search({.text = text, .k = 10});
      if (!results_or.ok()) {
        search_failed.store(true);
        return;
      }
      if (probe >= 0) {
        probes_checked.fetch_add(1);
        if (results_or->empty()) probes_missed.fetch_add(1);
      }
    }
  });
  ingester.join();
  barriers.join();
  searcher.join();
  EXPECT_FALSE(ingest_failed.load());
  EXPECT_FALSE(barrier_failed.load());
  EXPECT_FALSE(search_failed.load());
  EXPECT_GT(probes_checked.load(), 0);
  EXPECT_EQ(probes_missed.load(), 0);

  ASSERT_TRUE(service.Flush().ok());
  EXPECT_EQ(service.Stats().messages_ingested, 2000u);
  auto final_or = service.Search({.text = "#probe1975", .k = 10});
  ASSERT_TRUE(final_or.ok());
  EXPECT_FALSE(final_or->empty());
}

}  // namespace
}  // namespace microprov
