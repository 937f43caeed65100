// Equivalence suite for the id-native top-k query path: the optimized
// pipeline (QueryPlan scoring, upper-bound pruning, k-bounded heap,
// deferred materialization, shard fan-out on the service's workers) must
// return results byte-identical — same bundles, same double scores, same
// order, same summaries — to a brute-force string-path reference that
// scores every candidate, archived ones decoded, with the test oracle
// BundleRelevance and sorts the lot.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "query/query_processor.h"
#include "service/service.h"
#include "testing/relevance_reference.h"
#include "testing/summary_reference.h"
#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::BundleRelevance;
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

/// The pre-optimization algorithm, kept verbatim as the oracle: string
/// candidate lookups, BundleRelevance for every candidate, full
/// materialization, one partial_sort. Archived ids iterate in ascending
/// order under the decode cap (the one deliberate behavior change — the
/// old unordered_set order was nondeterministic past the cap).
std::vector<BundleSearchResult> ReferenceSearch(
    const ProvenanceEngine& engine, const QueryWeights& weights,
    BundleStore* archive, const BundleQuery& query) {
  ParsedQuery parsed = ParseQuery(query.text);
  if (parsed.empty() || query.k == 0) return {};
  const SearchFilters& filters = query.filters;
  auto passes = [&](const Bundle& bundle) {
    if (bundle.size() < filters.min_bundle_size) return false;
    if (filters.since != 0 && bundle.end_time() < filters.since) {
      return false;
    }
    if (filters.until != 0 && bundle.start_time() > filters.until) {
      return false;
    }
    return true;
  };
  const SummaryIndex& index = engine.summary_index();
  const BundlePool& pool = engine.pool();
  std::set<BundleId> candidates;
  for (const std::string& term : parsed.keywords) {
    for (BundleId id : index.Lookup(IndicantType::kKeyword, term)) {
      candidates.insert(id);
    }
    for (BundleId id : index.Lookup(IndicantType::kHashtag, term)) {
      candidates.insert(id);
    }
  }
  for (const std::string& word : parsed.raw_words) {
    for (BundleId id : index.Lookup(IndicantType::kHashtag, word)) {
      candidates.insert(id);
    }
  }
  for (const std::string& tag : parsed.hashtags) {
    for (BundleId id : index.Lookup(IndicantType::kHashtag, tag)) {
      candidates.insert(id);
    }
  }
  for (const std::string& url : parsed.urls) {
    for (BundleId id : index.Lookup(IndicantType::kUrl, url)) {
      candidates.insert(id);
    }
  }
  const size_t total_bundles =
      query.total_bundles > 0 ? query.total_bundles : pool.size();
  auto make_result = [&](const Bundle& bundle, bool archived) {
    BundleSearchResult result;
    result.bundle = bundle.id();
    result.score = BundleRelevance(parsed, bundle, index, total_bundles,
                                   query.now, weights);
    result.size = bundle.size();
    result.last_post = bundle.end_time();
    for (auto& [word, count] :
         testing_util::ReferenceTopKeywords(bundle, 10)) {
      result.summary_words.push_back(word);
    }
    result.archived = archived;
    return result;
  };
  std::vector<BundleSearchResult> results;
  for (BundleId id : candidates) {
    const Bundle* bundle = pool.Get(id);
    if (bundle == nullptr || !passes(*bundle)) continue;
    results.push_back(make_result(*bundle, /*archived=*/false));
  }
  if (archive != nullptr && filters.include_archived) {
    std::set<BundleId> archived_ids;
    auto collect = [&](IndicantType type, const std::string& term) {
      for (BundleId id : archive->FindByTerm(type, term)) {
        if (candidates.count(id) == 0) archived_ids.insert(id);
      }
    };
    for (const std::string& term : parsed.keywords) {
      collect(IndicantType::kKeyword, term);
      collect(IndicantType::kHashtag, term);
    }
    for (const std::string& word : parsed.raw_words) {
      collect(IndicantType::kHashtag, word);
    }
    for (const std::string& tag : parsed.hashtags) {
      collect(IndicantType::kHashtag, tag);
    }
    size_t considered = 0;
    for (BundleId id : archived_ids) {
      if (considered++ >= BundleQueryProcessor::kMaxArchivedCandidates) {
        break;
      }
      auto bundle_or = archive->Get(id);
      if (!bundle_or.ok() || !passes(**bundle_or)) continue;
      results.push_back(make_result(**bundle_or, /*archived=*/true));
    }
  }
  size_t take = std::min(query.k, results.size());
  std::partial_sort(results.begin(), results.begin() + take, results.end(),
                    [](const BundleSearchResult& a,
                       const BundleSearchResult& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.bundle < b.bundle;
                    });
  results.resize(take);
  return results;
}

void ExpectIdentical(const std::vector<BundleSearchResult>& got,
                     const std::vector<BundleSearchResult>& want,
                     const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(label + " result " + std::to_string(i));
    EXPECT_EQ(got[i].bundle, want[i].bundle);
    // Byte-identical doubles, not approximate: the plan mirrors the
    // string path's arithmetic operation for operation.
    EXPECT_EQ(got[i].score, want[i].score);
    EXPECT_EQ(got[i].size, want[i].size);
    EXPECT_EQ(got[i].last_post, want[i].last_post);
    EXPECT_EQ(got[i].summary_words, want[i].summary_words);
    EXPECT_EQ(got[i].archived, want[i].archived);
  }
}

/// Shared vocabulary small enough that terms collide across bundles —
/// pruning and tie handling get exercised instead of degenerate
/// one-candidate queries.
const char* const kWords[] = {"yankee",  "redsox", "game",   "tonight",
                              "tsunami", "flood",  "warning", "samoa",
                              "concert", "ticket", "strike",  "vote"};
const char* const kTags[] = {"#mlb", "#alert", "#live", "#news", "#rally"};

std::string RandomText(std::mt19937* rng) {
  std::uniform_int_distribution<int> word_count(1, 5);
  std::uniform_int_distribution<size_t> word(0, std::size(kWords) - 1);
  std::uniform_int_distribution<int> tag_chance(0, 3);
  std::uniform_int_distribution<size_t> tag(0, std::size(kTags) - 1);
  std::string text;
  const int n = word_count(*rng);
  for (int i = 0; i < n; ++i) {
    if (!text.empty()) text += ' ';
    text += kWords[word(*rng)];
  }
  if (tag_chance(*rng) == 0) {
    text += ' ';
    text += kTags[tag(*rng)];
  }
  return text;
}

std::string RandomQuery(std::mt19937* rng) {
  // Queries reuse the message vocabulary plus occasional misses.
  std::uniform_int_distribution<int> kind(0, 9);
  if (kind(*rng) == 0) return "cricket wicket";  // no candidates
  return RandomText(rng);
}

class QueryEquivalenceTest : public ::testing::Test {
 protected:
  QueryEquivalenceTest()
      : clock_(kTestEpoch),
        engine_(EngineOptions::ForConfig(IndexConfig::kFullIndex),
                &clock_, nullptr) {}

  void Feed(MessageId id, Timestamp date, const std::string& user,
            const std::string& text) {
    Message msg = TextMessage(id, date, user, text);
    clock_.Advance(date);
    ASSERT_TRUE(engine_.Ingest(msg).ok());
  }

  void FeedRandomStream(size_t n, uint32_t seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<Timestamp> gap(0, kSecondsPerDay / 4);
    Timestamp t = kTestEpoch;
    for (size_t i = 0; i < n; ++i) {
      t += gap(rng);
      Feed(static_cast<MessageId>(i + 1), t,
           "user" + std::to_string(i % 7), RandomText(&rng));
    }
    now_ = t + kSecondsPerDay;
  }

  SimulatedClock clock_;
  ProvenanceEngine engine_;
  Timestamp now_ = kTestEpoch;
};

TEST_F(QueryEquivalenceTest, RandomizedWorkloadMatchesReference) {
  FeedRandomStream(600, /*seed=*/42);
  BundleQueryProcessor processor(&engine_);
  std::mt19937 rng(7);
  const size_t ks[] = {1, 2, 3, 5, 10, 25, 100};
  for (int round = 0; round < 60; ++round) {
    BundleQuery query;
    query.text = RandomQuery(&rng);
    query.k = ks[round % std::size(ks)];
    query.now = now_;
    auto want = ReferenceSearch(engine_, QueryWeights{}, nullptr, query);
    ExpectIdentical(processor.Search(query), want,
                    "pruned q=\"" + query.text + "\"");
    query.prune = false;
    ExpectIdentical(processor.Search(query), want,
                    "unpruned q=\"" + query.text + "\"");
  }
}

TEST_F(QueryEquivalenceTest, FiltersMatchReference) {
  FeedRandomStream(400, /*seed=*/11);
  BundleQueryProcessor processor(&engine_);
  std::mt19937 rng(13);
  std::uniform_int_distribution<Timestamp> pivot(
      kTestEpoch, now_ > kTestEpoch ? now_ : kTestEpoch + 1);
  for (int round = 0; round < 40; ++round) {
    BundleQuery query;
    query.text = RandomQuery(&rng);
    query.k = 10;
    query.now = now_;
    switch (round % 4) {
      case 0:
        query.filters.since = pivot(rng);
        break;
      case 1:
        query.filters.until = pivot(rng);
        break;
      case 2:
        query.filters.since = pivot(rng);
        query.filters.until = pivot(rng);
        break;
      case 3:
        query.filters.min_bundle_size = 2;
        break;
    }
    auto want = ReferenceSearch(engine_, QueryWeights{}, nullptr, query);
    ExpectIdentical(processor.Search(query), want,
                    "filters q=\"" + query.text + "\"");
  }
}

TEST_F(QueryEquivalenceTest, ExactScoreTiesBreakByBundleId) {
  // Bundles with identical term profiles and identical timestamps score
  // exactly equal; the id tie-break decides, and pruning must not drop
  // a tying candidate.
  for (int i = 0; i < 12; ++i) {
    Feed(i + 1, kTestEpoch, "user" + std::to_string(i),
         "game tonight #evt" + std::to_string(i));
  }
  BundleQueryProcessor processor(&engine_);
  for (size_t k : {1u, 3u, 5u, 12u, 20u}) {
    BundleQuery query;
    query.text = "game";
    query.k = k;
    query.now = kTestEpoch + kSecondsPerDay;
    auto want = ReferenceSearch(engine_, QueryWeights{}, nullptr, query);
    auto got = processor.Search(query);
    ExpectIdentical(got, want, "ties k=" + std::to_string(k));
    for (size_t i = 1; i < got.size(); ++i) {
      EXPECT_EQ(got[i].score, got[0].score);
      EXPECT_GT(got[i].bundle, got[i - 1].bundle);
    }
  }
}

TEST_F(QueryEquivalenceTest, NonDefaultWeightsAndQuality) {
  FeedRandomStream(300, /*seed=*/23);
  QueryWeights weights;
  weights.alpha_text = 0.6;
  weights.beta_indicant = 0.1;
  weights.quality_weight = 0.2;
  BundleQueryProcessor processor(&engine_, weights);
  std::mt19937 rng(5);
  for (int round = 0; round < 30; ++round) {
    BundleQuery query;
    query.text = RandomQuery(&rng);
    query.k = 5;
    query.now = now_;
    ExpectIdentical(processor.Search(query),
                    ReferenceSearch(engine_, weights, nullptr, query),
                    "weights q=\"" + query.text + "\"");
  }
}

TEST_F(QueryEquivalenceTest, NegativeGammaWeightsMatchReference) {
  // alpha + beta > 1 makes the freshness weight negative; the plan must
  // drop the freshness term from its bound (never shrink it) and still
  // return exact results.
  FeedRandomStream(200, /*seed=*/31);
  QueryWeights weights;
  weights.alpha_text = 0.8;
  weights.beta_indicant = 0.5;
  BundleQueryProcessor processor(&engine_, weights);
  std::mt19937 rng(17);
  for (int round = 0; round < 20; ++round) {
    BundleQuery query;
    query.text = RandomQuery(&rng);
    query.k = 5;
    query.now = now_;
    ExpectIdentical(processor.Search(query),
                    ReferenceSearch(engine_, weights, nullptr, query),
                    "neg-gamma q=\"" + query.text + "\"");
  }
}

/// Words only archived bundles use: the live stream never interns them,
/// so a shard dictionary cannot resolve them and only a string match
/// against the archived record can score them.
const char* const kArchiveWords[] = {"quake",  "harbor", "ferry",
                                     "bridge", "parade", "relief"};
const char* const kUrls[] = {"http://t.co/a1", "http://t.co/b2",
                             "http://t.co/c3"};

/// One archived member message: vocabulary from both the live and the
/// archive-only word lists (often more than six keywords, so the
/// per-message summary cut applies), sometimes a URL and hashtags, and
/// sometimes a keyword or hashtag repeated inside the message.
Message ArchivedMessage(MessageId id, Timestamp date, std::mt19937* rng) {
  std::uniform_int_distribution<int> word_count(1, 9);
  std::uniform_int_distribution<size_t> live_word(0, std::size(kWords) - 1);
  std::uniform_int_distribution<size_t> archive_word(
      0, std::size(kArchiveWords) - 1);
  std::uniform_int_distribution<size_t> tag(0, std::size(kTags) - 1);
  std::uniform_int_distribution<size_t> url(0, std::size(kUrls) - 1);
  std::uniform_int_distribution<int> chance(0, 3);
  std::string text;
  const int n = word_count(*rng);
  for (int i = 0; i < n; ++i) {
    if (!text.empty()) text += ' ';
    text += chance(*rng) == 0 ? kArchiveWords[archive_word(*rng)]
                              : kWords[live_word(*rng)];
  }
  if (chance(*rng) == 0) text += std::string(" ") + kTags[tag(*rng)];
  if (chance(*rng) == 0) text += std::string(" ") + kUrls[url(*rng)];
  Message msg = TextMessage(id, date, "old" + std::to_string(id % 3), text);
  // The parser dedupes; a hand-built message may repeat a term, and the
  // summaries count every occurrence.
  if (!msg.keywords.empty() && chance(*rng) == 0) {
    std::uniform_int_distribution<size_t> pos(0, msg.keywords.size());
    msg.keywords.insert(msg.keywords.begin() + pos(*rng),
                        msg.keywords.front());
  }
  if (!msg.hashtags.empty() && chance(*rng) == 0) {
    msg.hashtags.push_back(msg.hashtags.front());
  }
  return msg;
}

/// A query over the live and archive-only vocabularies, tags, bare words
/// naming tags (whose stems differ from the tag for "news" and
/// "rally"), and URLs.
std::string RandomArchiveQuery(std::mt19937* rng) {
  std::uniform_int_distribution<int> kind(0, 5);
  std::uniform_int_distribution<size_t> archive_word(
      0, std::size(kArchiveWords) - 1);
  std::uniform_int_distribution<size_t> url(0, std::size(kUrls) - 1);
  std::uniform_int_distribution<size_t> tag(0, std::size(kTags) - 1);
  std::string text = RandomQuery(rng);
  switch (kind(*rng)) {
    case 0:
    case 1:
      text += std::string(" ") + kArchiveWords[archive_word(*rng)];
      break;
    case 2:
      text += std::string(" ") + kUrls[url(*rng)];
      break;
    case 3:
      text = kArchiveWords[archive_word(*rng)];
      break;
    case 4:
      text += std::string(" ") + (kTags[tag(*rng)] + 1);
      break;
    default:
      break;
  }
  return text;
}

TEST_F(QueryEquivalenceTest, ArchivedBundlesMatchReference) {
  testing_util::ScopedTempDir dir;
  BundleStore::Options store_options;
  store_options.dir = dir.path() + "/store";
  auto store_or = BundleStore::Open(store_options);
  ASSERT_TRUE(store_or.ok());
  std::unique_ptr<BundleStore> store = std::move(*store_or);

  FeedRandomStream(200, /*seed=*/3);
  // Archive a population overlapping the live vocabulary, larger than
  // the decode cap so the deterministic ascending-id cap is exercised.
  // Most bundles hold several messages (keyword counts above 1, ties at
  // the tenth summary word); every fourth is a single message.
  std::mt19937 rng(19);
  const size_t n_archived =
      BundleQueryProcessor::kMaxArchivedCandidates + 20;
  std::uniform_int_distribution<size_t> members(2, 8);
  std::uniform_int_distribution<Timestamp> jitter(0, kSecondsPerDay);
  MessageId next_id = 50000;
  for (size_t i = 0; i < n_archived; ++i) {
    Bundle bundle(100000 + i);
    const size_t n = i % 4 == 0 ? 1 : members(rng);
    const Timestamp base =
        kTestEpoch - static_cast<Timestamp>(i) * kSecondsPerDay / 2;
    MessageId parent = kInvalidMessageId;
    for (size_t m = 0; m < n; ++m) {
      Message msg = ArchivedMessage(next_id++, base + jitter(rng), &rng);
      const MessageId id = msg.id;
      bundle.AddMessage(std::move(msg), parent, ConnectionType::kText,
                        0.5f);
      parent = id;
    }
    ASSERT_TRUE(store->Put(bundle).ok());
  }

  std::uniform_int_distribution<Timestamp> pivot(
      kTestEpoch - static_cast<Timestamp>(n_archived) * kSecondsPerDay / 2,
      now_);
  // Runs `rounds` random queries through `engine` + `store` under
  // `weights`, pruned and unpruned, against the reference. Every third
  // round sets a filter; every fifth leaves the archive out.
  auto check = [&](const ProvenanceEngine& engine, const QueryWeights& weights,
                   size_t total_bundles, uint32_t seed,
                   const std::string& label) {
    BundleQueryProcessor processor(&engine, weights, store.get());
    std::mt19937 query_rng(seed);
    size_t archived_hits = 0;
    for (int round = 0; round < 30; ++round) {
      BundleQuery query;
      query.text = RandomArchiveQuery(&query_rng);
      query.k = (round % 2 == 0) ? 5 : 80;
      query.now = now_;
      query.total_bundles = total_bundles;
      if (round % 5 == 4) query.filters.include_archived = false;
      switch (round % 9) {
        case 0:
          query.filters.since = pivot(query_rng);
          break;
        case 3:
          query.filters.until = pivot(query_rng);
          break;
        case 6:
          query.filters.since = pivot(query_rng);
          query.filters.until = pivot(query_rng);
          query.filters.min_bundle_size = 3;
          break;
        case 7:
          query.filters.min_bundle_size = 2;
          break;
        default:
          break;
      }
      auto want = ReferenceSearch(engine, weights, store.get(), query);
      for (const BundleSearchResult& hit : want) archived_hits += hit.archived;
      const std::string q = label + " q=\"" + query.text + "\"";
      ExpectIdentical(processor.Search(query), want, q);
      query.prune = false;
      ExpectIdentical(processor.Search(query), want, q + " unpruned");
    }
    EXPECT_GT(archived_hits, 0u) << label;
  };

  QueryWeights quality;
  quality.alpha_text = 0.6;
  quality.beta_indicant = 0.1;
  quality.quality_weight = 0.2;

  check(engine_, QueryWeights{}, 0, 29, "archived");
  check(engine_, quality, 0, 31, "archived-quality");

  // Reopened: summaries and the term index come back from the logs.
  store.reset();
  store_or = BundleStore::Open(store_options);
  ASSERT_TRUE(store_or.ok());
  store = std::move(*store_or);
  check(engine_, QueryWeights{}, 0, 37, "reopened");
  check(engine_, quality, 0, 41, "reopened-quality");

  // A fresh engine interned none of the archived terms: every archived
  // match is by the record's strings.
  SimulatedClock fresh_clock(kTestEpoch);
  ProvenanceEngine fresh(EngineOptions::ForConfig(IndexConfig::kFullIndex),
                         &fresh_clock, nullptr);
  check(fresh, QueryWeights{}, 0, 43, "fresh");
  check(fresh, QueryWeights{}, 500, 47, "fresh-total");
}

TEST(QueryShardEquivalenceTest, ServiceLaneMatchesSerialFanOut) {
  // A 4-shard Service searches on its shard workers (the query lane).
  // After Flush, serial SearchShards over the same engines must return
  // exactly the same pages, and both must equal the reference merge:
  // per-shard brute force against the global population, merged under
  // the shared comparator.
  constexpr size_t kNumShards = 4;
  ServiceOptions options;
  options.num_shards = kNumShards;
  options.engine = EngineOptions::ForConfig(IndexConfig::kFullIndex);
  auto service_or = Service::Open(options);
  ASSERT_TRUE(service_or.ok());
  Service& service = **service_or;
  const ShardedEngine& sharded = service.sharded();

  std::vector<BundleQueryProcessor> processors;
  processors.reserve(kNumShards);
  for (size_t i = 0; i < kNumShards; ++i) {
    processors.emplace_back(&sharded.shard(i));
  }
  std::vector<const BundleQueryProcessor*> shard_ptrs;
  for (const auto& p : processors) shard_ptrs.push_back(&p);

  std::mt19937 rng(57);
  std::mt19937 query_rng(61);
  std::uniform_int_distribution<Timestamp> gap(0, kSecondsPerDay / 4);
  Timestamp t = kTestEpoch;
  MessageId next_id = 1;
  const size_t ks[] = {1, 3, 5, 10, 40};
  for (int phase = 0; phase < 2; ++phase) {
    for (size_t i = 0; i < 250; ++i, ++next_id) {
      t += gap(rng);
      ASSERT_TRUE(service
                      .Ingest(TextMessage(next_id, t,
                                          "user" + std::to_string(i % 5),
                                          RandomText(&rng)))
                      .ok());
    }
    ASSERT_TRUE(service.Flush().ok());
    const size_t total_bundles = sharded.TotalPoolSize();

    for (int round = 0; round < 20; ++round) {
      BundleQuery query;
      query.text = RandomQuery(&query_rng);
      query.k = ks[round % std::size(ks)];
      // A zero `now` takes the service clock; the serial side is given
      // that clock explicitly.
      query.now = round % 4 == 0 ? 0 : t + kSecondsPerDay;
      auto lane_or = service.Search(query);
      ASSERT_TRUE(lane_or.ok());
      if (query.now == 0) query.now = service.Now();
      const auto serial = BundleQueryProcessor::SearchShards(shard_ptrs,
                                                             query);
      ExpectIdentical(*lane_or, serial, "lane q=\"" + query.text + "\"");
      for (size_t i = 0; i < serial.size() && i < lane_or->size(); ++i) {
        EXPECT_EQ((*lane_or)[i].shard, serial[i].shard) << query.text;
      }

      std::vector<BundleSearchResult> merged;
      for (size_t s = 0; s < kNumShards; ++s) {
        BundleQuery shard_query = query;
        shard_query.total_bundles = total_bundles;
        auto hits = ReferenceSearch(sharded.shard(s), QueryWeights{},
                                    nullptr, shard_query);
        for (auto& hit : hits) {
          hit.shard = static_cast<uint32_t>(s);
          merged.push_back(std::move(hit));
        }
      }
      std::sort(merged.begin(), merged.end(), BundleResultOrder{});
      if (merged.size() > query.k) merged.resize(query.k);
      ExpectIdentical(serial, merged,
                      "reference q=\"" + query.text + "\"");
      for (size_t i = 0; i < serial.size() && i < merged.size(); ++i) {
        EXPECT_EQ(serial[i].shard, merged[i].shard) << query.text;
      }
    }
  }
}

}  // namespace
}  // namespace microprov
