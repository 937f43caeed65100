#include "storage/bundle_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/random.h"
#include "storage/bundle_codec.h"
#include "storage/log_format.h"
#include "testing/summary_reference.h"
#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::kTestEpoch;
using testing_util::MakeMessage;
using testing_util::ScopedTempDir;

std::unique_ptr<Bundle> MakeBundle(BundleId id, size_t messages) {
  auto bundle = std::make_unique<Bundle>(id);
  for (size_t i = 0; i < messages; ++i) {
    MessageId mid = static_cast<MessageId>(id * 1000 + i);
    bundle->AddMessage(
        MakeMessage(mid, kTestEpoch + static_cast<Timestamp>(i),
                    "user" + std::to_string(i % 3),
                    {"tag" + std::to_string(id)}),
        i == 0 ? kInvalidMessageId : mid - 1, ConnectionType::kHashtag,
        0.5f);
  }
  return bundle;
}

class BundleStoreTest : public ::testing::Test {
 protected:
  BundleStore::Options StoreOptions() {
    BundleStore::Options options;
    options.dir = dir_.path() + "/store";
    return options;
  }

  ScopedTempDir dir_;
};

TEST_F(BundleStoreTest, PutGetRoundTrip) {
  auto store_or = BundleStore::Open(StoreOptions());
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  auto bundle = MakeBundle(1, 5);
  ASSERT_TRUE(store->Put(*bundle).ok());
  auto loaded_or = store->Get(1);
  ASSERT_TRUE(loaded_or.ok());
  EXPECT_EQ((*loaded_or)->id(), 1u);
  EXPECT_EQ((*loaded_or)->size(), 5u);
  EXPECT_EQ((*loaded_or)->CountOf(IndicantType::kHashtag, "tag1"), 5u);
}

TEST_F(BundleStoreTest, GetMissingIsNotFound) {
  auto store_or = BundleStore::Open(StoreOptions());
  ASSERT_TRUE(store_or.ok());
  EXPECT_TRUE((*store_or)->Get(999).status().IsNotFound());
  EXPECT_FALSE((*store_or)->Contains(999));
}

TEST_F(BundleStoreTest, ManyBundlesAndListing) {
  auto store_or = BundleStore::Open(StoreOptions());
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  for (BundleId id = 1; id <= 50; ++id) {
    ASSERT_TRUE(store->Put(*MakeBundle(id, 1 + id % 7)).ok());
  }
  EXPECT_EQ(store->bundle_count(), 50u);
  EXPECT_EQ(store->max_bundle_id(), 50u);
  EXPECT_EQ(store->ListBundleIds().size(), 50u);
  auto loaded_or = store->Get(37);
  ASSERT_TRUE(loaded_or.ok());
  EXPECT_EQ((*loaded_or)->size(), 1 + 37 % 7);
}

TEST_F(BundleStoreTest, RecoveryAfterReopen) {
  BundleStore::Options options = StoreOptions();
  {
    auto store_or = BundleStore::Open(options);
    ASSERT_TRUE(store_or.ok());
    for (BundleId id = 1; id <= 10; ++id) {
      ASSERT_TRUE((*store_or)->Put(*MakeBundle(id, 4)).ok());
    }
  }
  auto reopened_or = BundleStore::Open(options);
  ASSERT_TRUE(reopened_or.ok());
  auto& store = *reopened_or;
  EXPECT_EQ(store->bundle_count(), 10u);
  EXPECT_EQ(store->max_bundle_id(), 10u);
  auto loaded_or = store->Get(7);
  ASSERT_TRUE(loaded_or.ok());
  EXPECT_EQ((*loaded_or)->size(), 4u);
}

TEST_F(BundleStoreTest, LatestPutWins) {
  BundleStore::Options options = StoreOptions();
  auto store_or = BundleStore::Open(options);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  ASSERT_TRUE(store->Put(*MakeBundle(5, 2)).ok());
  ASSERT_TRUE(store->Put(*MakeBundle(5, 9)).ok());
  auto loaded_or = store->Get(5);
  ASSERT_TRUE(loaded_or.ok());
  EXPECT_EQ((*loaded_or)->size(), 9u);
  EXPECT_EQ(store->bundle_count(), 1u);
}

TEST_F(BundleStoreTest, LatestPutWinsAcrossReopen) {
  BundleStore::Options options = StoreOptions();
  {
    auto store_or = BundleStore::Open(options);
    ASSERT_TRUE(store_or.ok());
    ASSERT_TRUE((*store_or)->Put(*MakeBundle(5, 2)).ok());
    ASSERT_TRUE((*store_or)->Put(*MakeBundle(5, 9)).ok());
  }
  auto reopened_or = BundleStore::Open(options);
  ASSERT_TRUE(reopened_or.ok());
  auto loaded_or = (*reopened_or)->Get(5);
  ASSERT_TRUE(loaded_or.ok());
  EXPECT_EQ((*loaded_or)->size(), 9u);
}

TEST_F(BundleStoreTest, RotationCreatesNewFiles) {
  BundleStore::Options options = StoreOptions();
  options.rotate_bytes = 4096;  // tiny, force rotation
  auto store_or = BundleStore::Open(options);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  for (BundleId id = 1; id <= 40; ++id) {
    ASSERT_TRUE(store->Put(*MakeBundle(id, 10)).ok());
  }
  auto names_or = Env::Default()->ListDir(options.dir);
  ASSERT_TRUE(names_or.ok());
  EXPECT_GT(names_or->size(), 2u);
  // Every bundle still readable.
  for (BundleId id = 1; id <= 40; ++id) {
    ASSERT_TRUE(store->Get(id).ok()) << id;
  }
}

TEST_F(BundleStoreTest, SyncCoversRotatedLogsAndSkipsCompactedOnes) {
  BundleStore::Options options = StoreOptions();
  options.rotate_bytes = 4096;  // tiny, force rotation
  auto store_or = BundleStore::Open(options);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  obs::MetricsRegistry registry;
  store->BindMetrics(&registry, "shard=\"0\"");
  auto syncs = [&registry] {
    return registry.GetCounter("microprov_store_syncs_total")->value();
  };
  auto log_files = [&options] {
    auto names_or = Env::Default()->ListDir(options.dir);
    EXPECT_TRUE(names_or.ok());
    return names_or->size();
  };
  for (BundleId id = 1; id <= 40; ++id) {
    ASSERT_TRUE(store->Put(*MakeBundle(id, 10)).ok());
  }
  EXPECT_EQ(syncs(), 0u);  // Put and Flush never fsync by default
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(syncs(), 0u);
  ASSERT_TRUE(store->Sync().ok());
  EXPECT_EQ(syncs(), 1u);

  // Compaction deletes the rotated logs; a later Sync must not reopen
  // (and so re-create) any of them.
  for (BundleId id = 41; id <= 80; ++id) {
    ASSERT_TRUE(store->Put(*MakeBundle(id, 10)).ok());
  }
  ASSERT_TRUE(store->Compact().ok());
  const size_t compacted = log_files();
  ASSERT_TRUE(store->Sync().ok());
  EXPECT_EQ(syncs(), 2u);
  EXPECT_EQ(log_files(), compacted);
  for (BundleId id = 1; id <= 80; ++id) {
    ASSERT_TRUE(store->Get(id).ok()) << id;
  }
}

TEST_F(BundleStoreTest, ScanVisitsEverything) {
  auto store_or = BundleStore::Open(StoreOptions());
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  for (BundleId id = 1; id <= 12; ++id) {
    ASSERT_TRUE(store->Put(*MakeBundle(id, 2)).ok());
  }
  size_t visited = 0;
  uint64_t message_total = 0;
  ASSERT_TRUE(store
                  ->Scan([&](const Bundle& bundle) {
                    ++visited;
                    message_total += bundle.size();
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(visited, 12u);
  EXPECT_EQ(message_total, 24u);
}

TEST_F(BundleStoreTest, FindByTermLocatesArchivedBundles) {
  auto store_or = BundleStore::Open(StoreOptions());
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  ASSERT_TRUE(store->Put(*MakeBundle(1, 3)).ok());  // tag1
  ASSERT_TRUE(store->Put(*MakeBundle(2, 3)).ok());  // tag2
  EXPECT_EQ(store->FindByTerm(IndicantType::kHashtag, "tag1"),
            (std::vector<BundleId>{1}));
  EXPECT_EQ(store->FindByTerm(IndicantType::kHashtag, "tag2"),
            (std::vector<BundleId>{2}));
  EXPECT_TRUE(store->FindByTerm(IndicantType::kHashtag, "absent").empty());
}

TEST_F(BundleStoreTest, FindByTermSurvivesRecovery) {
  BundleStore::Options options = StoreOptions();
  {
    auto store_or = BundleStore::Open(options);
    ASSERT_TRUE(store_or.ok());
    ASSERT_TRUE((*store_or)->Put(*MakeBundle(7, 4)).ok());
  }
  auto reopened_or = BundleStore::Open(options);
  ASSERT_TRUE(reopened_or.ok());
  EXPECT_EQ((*reopened_or)->FindByTerm(IndicantType::kHashtag, "tag7"),
            (std::vector<BundleId>{7}));
}

TEST_F(BundleStoreTest, FindByTermDedupsRePuts) {
  auto store_or = BundleStore::Open(StoreOptions());
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  ASSERT_TRUE(store->Put(*MakeBundle(3, 2)).ok());
  ASSERT_TRUE(store->Put(*MakeBundle(4, 2)).ok());  // interleave
  ASSERT_TRUE(store->Put(*MakeBundle(3, 5)).ok());  // re-put
  EXPECT_EQ(store->FindByTerm(IndicantType::kHashtag, "tag3"),
            (std::vector<BundleId>{3}));
}

TEST_F(BundleStoreTest, FindByTermKeepsIndicantTypesApart) {
  // "redsox" is one bundle's hashtag and another's keyword: each lookup
  // reaches only the bundle carrying it as that type, across a reopen.
  BundleStore::Options options = StoreOptions();
  {
    auto store_or = BundleStore::Open(options);
    ASSERT_TRUE(store_or.ok());
    Bundle tagged(1);
    tagged.AddMessage(MakeMessage(1, kTestEpoch, "alice", {"redsox"}),
                      kInvalidMessageId, ConnectionType::kText, 0.0f);
    Bundle worded(2);
    worded.AddMessage(
        MakeMessage(2, kTestEpoch, "bob", {"yankees"}, {}, {"redsox"}),
        kInvalidMessageId, ConnectionType::kText, 0.0f);
    ASSERT_TRUE((*store_or)->Put(tagged).ok());
    ASSERT_TRUE((*store_or)->Put(worded).ok());
  }
  auto store_or = BundleStore::Open(options);
  ASSERT_TRUE(store_or.ok());
  EXPECT_EQ((*store_or)->FindByTerm(IndicantType::kHashtag, "redsox"),
            (std::vector<BundleId>{1}));
  EXPECT_EQ((*store_or)->FindByTerm(IndicantType::kKeyword, "redsox"),
            (std::vector<BundleId>{2}));
  EXPECT_EQ((*store_or)->FindByTerm(IndicantType::kHashtag, "yankees"),
            (std::vector<BundleId>{2}));
  EXPECT_TRUE((*store_or)->FindByTerm(IndicantType::kUser, "alice").empty());
}

TEST_F(BundleStoreTest, CompactionReclaimsSupersededSpace) {
  BundleStore::Options options = StoreOptions();
  options.rotate_bytes = 8192;
  auto store_or = BundleStore::Open(options);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  // Re-put the same bundles many times: most records become dead.
  for (int round = 0; round < 10; ++round) {
    for (BundleId id = 1; id <= 8; ++id) {
      ASSERT_TRUE(store->Put(*MakeBundle(id, 6)).ok());
    }
  }
  ASSERT_TRUE(store->Flush().ok());
  auto before_or = store->TotalLogBytes();
  ASSERT_TRUE(before_or.ok());

  ASSERT_TRUE(store->Compact().ok());
  auto after_or = store->TotalLogBytes();
  ASSERT_TRUE(after_or.ok());
  EXPECT_LT(*after_or, *before_or / 4);
  EXPECT_EQ(store->compactions(), 1u);

  // All bundles still readable with their latest contents.
  EXPECT_EQ(store->bundle_count(), 8u);
  for (BundleId id = 1; id <= 8; ++id) {
    auto loaded_or = store->Get(id);
    ASSERT_TRUE(loaded_or.ok()) << id;
    EXPECT_EQ((*loaded_or)->size(), 6u);
  }
}

TEST_F(BundleStoreTest, CompactedStoreRecovers) {
  BundleStore::Options options = StoreOptions();
  {
    auto store_or = BundleStore::Open(options);
    ASSERT_TRUE(store_or.ok());
    for (BundleId id = 1; id <= 5; ++id) {
      ASSERT_TRUE((*store_or)->Put(*MakeBundle(id, 3)).ok());
    }
    ASSERT_TRUE((*store_or)->Compact().ok());
    // Writes after compaction land in the new log.
    ASSERT_TRUE((*store_or)->Put(*MakeBundle(6, 3)).ok());
  }
  auto reopened_or = BundleStore::Open(options);
  ASSERT_TRUE(reopened_or.ok());
  EXPECT_EQ((*reopened_or)->bundle_count(), 6u);
  for (BundleId id = 1; id <= 6; ++id) {
    EXPECT_TRUE((*reopened_or)->Get(id).ok()) << id;
  }
}

TEST_F(BundleStoreTest, CompactEmptyStoreIsANoopish) {
  auto store_or = BundleStore::Open(StoreOptions());
  ASSERT_TRUE(store_or.ok());
  ASSERT_TRUE((*store_or)->Compact().ok());
  EXPECT_EQ((*store_or)->bundle_count(), 0u);
}

TEST_F(BundleStoreTest, EmptyDirRequiredOption) {
  BundleStore::Options options;  // no dir
  EXPECT_TRUE(BundleStore::Open(options).status().IsInvalidArgument());
}

TEST_F(BundleStoreTest, TornTailOnRecoveryIsIgnored) {
  BundleStore::Options options = StoreOptions();
  {
    auto store_or = BundleStore::Open(options);
    ASSERT_TRUE(store_or.ok());
    ASSERT_TRUE((*store_or)->Put(*MakeBundle(1, 3)).ok());
    ASSERT_TRUE((*store_or)->Put(*MakeBundle(2, 3)).ok());
  }
  // Truncate the newest log file mid-record.
  auto names_or = Env::Default()->ListDir(options.dir);
  ASSERT_TRUE(names_or.ok());
  std::string newest;
  for (const auto& name : *names_or) {
    if (newest.empty() || name > newest) newest = name;
  }
  const std::string path = options.dir + "/" + newest;
  std::string contents;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &contents).ok());
  contents.resize(contents.size() - 5);
  ASSERT_TRUE(Env::Default()->WriteStringToFile(path, contents).ok());

  auto reopened_or = BundleStore::Open(options);
  ASSERT_TRUE(reopened_or.ok());
  EXPECT_EQ((*reopened_or)->bundle_count(), 1u);
  EXPECT_TRUE((*reopened_or)->Get(1).ok());
}

// A random bundle whose terms hit every corner of the archive's term
// index: hashtags repeated inside one message, messages with more than
// the per-message keyword cap, bundles with no keywords, and runs of
// single-count keywords that tie at the top-10 cut.
std::unique_ptr<Bundle> RandomTermBundle(BundleId id, Random* rng) {
  auto bundle = std::make_unique<Bundle>(id);
  const size_t messages = rng->Uniform(12);
  const bool no_keywords = rng->Bernoulli(0.2);
  const bool flat_keywords = rng->Bernoulli(0.3);
  for (size_t i = 0; i < messages; ++i) {
    std::vector<std::string> tags;
    for (size_t t = rng->Uniform(4); t > 0; --t) {
      tags.push_back("t" + std::to_string(rng->Uniform(12)));
    }
    if (!tags.empty() && rng->Bernoulli(0.3)) tags.push_back(tags.front());
    std::vector<std::string> words;
    if (!no_keywords) {
      for (size_t w = rng->Uniform(10); w > 0; --w) {
        words.push_back(flat_keywords
                            ? "f" + std::to_string(id) + "_" +
                                  std::to_string(i) + "_" +
                                  std::to_string(w)
                            : "w" + std::to_string(rng->Uniform(30)));
      }
    }
    const MessageId mid = static_cast<MessageId>(id * 100 + i);
    bundle->AddMessage(
        MakeMessage(mid, kTestEpoch + static_cast<Timestamp>(i), "u", tags,
                    {}, words),
        i == 0 ? kInvalidMessageId : mid - 1, ConnectionType::kText, 0.5f);
  }
  return bundle;
}

// What the archive's term index promises for one record: every hashtag,
// and the 10 keywords with the highest counts (count descending, then
// term ascending), counting each message's first 6 keywords.
void ExpectedTerms(const Bundle& bundle,
                   std::map<std::string, std::set<BundleId>>* tags,
                   std::map<std::string, std::set<BundleId>>* words) {
  std::map<std::string, uint32_t> counts;
  for (const BundleMessage& bm : bundle.messages()) {
    for (const std::string& tag : bm.msg.hashtags) {
      (*tags)[tag].insert(bundle.id());
    }
    for (size_t i = 0; i < bm.msg.keywords.size() &&
                       i < Bundle::kSummaryKeywordsPerMessage;
         ++i) {
      ++counts[bm.msg.keywords[i]];
    }
  }
  std::vector<std::pair<std::string, uint32_t>> ranked(counts.begin(),
                                                       counts.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  for (size_t i = 0; i < ranked.size() && i < 10; ++i) {
    (*words)[ranked[i].first].insert(bundle.id());
  }
}

TEST_F(BundleStoreTest, TermIndexRebuildsExactlyWhatPutBuilt) {
  BundleStore::Options options = StoreOptions();
  options.rotate_bytes = 4096;  // spread the records over several logs
  Random rng(20261019);
  std::map<std::string, std::set<BundleId>> tags, words;
  using Answers = std::map<std::pair<int, std::string>, std::vector<BundleId>>;
  auto answers = [&](const BundleStore& store) {
    Answers out;
    for (const auto* terms : {&tags, &words}) {
      for (const auto& [term, ids] : *terms) {
        for (IndicantType type :
             {IndicantType::kHashtag, IndicantType::kKeyword}) {
          out[{static_cast<int>(type), term}] = store.FindByTerm(type, term);
        }
      }
    }
    return out;
  };
  Answers before;
  {
    auto store_or = BundleStore::Open(options);
    ASSERT_TRUE(store_or.ok());
    auto& store = *store_or;
    for (BundleId id = 1; id <= 80; ++id) {
      auto bundle = RandomTermBundle(id, &rng);
      ExpectedTerms(*bundle, &tags, &words);
      ASSERT_TRUE(store->Put(*bundle).ok());
    }
    // One id put again with different terms: postings from both records
    // stay (FindByTerm is a candidate filter; scoring reads the latest).
    Bundle again(17);
    again.AddMessage(MakeMessage(1799, kTestEpoch, "u", {"reput"}, {},
                                 {"fresh", "fresh", "newer"}),
                     kInvalidMessageId, ConnectionType::kText, 0.0f);
    ExpectedTerms(again, &tags, &words);
    ASSERT_TRUE(store->Put(again).ok());
    before = answers(*store);
  }
  ASSERT_GT(words.size(), 40u);

  for (const auto& [key, ids] : before) {
    const auto& expected =
        key.first == static_cast<int>(IndicantType::kHashtag) ? tags : words;
    auto it = expected.find(key.second);
    const std::vector<BundleId> want =
        it == expected.end()
            ? std::vector<BundleId>{}
            : std::vector<BundleId>(it->second.begin(), it->second.end());
    EXPECT_EQ(ids, want) << key.first << " " << key.second;
  }
  EXPECT_EQ(before.at({static_cast<int>(IndicantType::kHashtag), "reput"}),
            (std::vector<BundleId>{17}));

  auto reopened_or = BundleStore::Open(options);
  ASSERT_TRUE(reopened_or.ok());
  EXPECT_EQ((*reopened_or)->bundle_count(), 80u);
  EXPECT_EQ(answers(**reopened_or), before);
}

// A random bundle for the summary checks: RandomTermBundle's term
// shapes with member dates out of order, and now and then enough
// members that the record spans several 32 KiB log blocks.
std::unique_ptr<Bundle> RandomSummaryBundle(BundleId id, Random* rng) {
  auto bundle = std::make_unique<Bundle>(id);
  const size_t messages =
      rng->Bernoulli(0.1) ? 500 + rng->Uniform(500) : rng->Uniform(12);
  for (size_t i = 0; i < messages; ++i) {
    std::vector<std::string> tags;
    for (size_t t = rng->Uniform(3); t > 0; --t) {
      tags.push_back("t" + std::to_string(rng->Uniform(12)));
    }
    std::vector<std::string> words;
    for (size_t w = rng->Uniform(10); w > 0; --w) {
      words.push_back("w" + std::to_string(rng->Uniform(30)));
    }
    if (!words.empty() && rng->Bernoulli(0.2)) words.push_back(words[0]);
    const MessageId mid = static_cast<MessageId>(id * 1000 + i);
    const Timestamp date =
        kTestEpoch + static_cast<Timestamp>(rng->Uniform(100000));
    bundle->AddMessage(MakeMessage(mid, date, "u", tags, {}, words),
                       i == 0 ? kInvalidMessageId : mid - 1,
                       ConnectionType::kText, 0.5f);
  }
  return bundle;
}

TEST_F(BundleStoreTest, SummariesMatchDecodedBundles) {
  BundleStore::Options options = StoreOptions();
  options.rotate_bytes = 16384;  // spread the records over several logs
  Random rng(20261020);
  std::map<BundleId, std::string> encoded;  // what each id last put
  // Every stored bundle: its record reads back byte for byte, and its
  // summary equals the decoded bundle's fields and reference top words.
  auto expect_summaries = [&](BundleStore* store, const std::string& label) {
    ASSERT_EQ(store->bundle_count(), encoded.size()) << label;
    std::string buffer;
    std::string_view record;
    for (const auto& [id, bytes] : encoded) {
      SCOPED_TRACE(label + " bundle " + std::to_string(id));
      ASSERT_TRUE(store->ReadRecord(id, &buffer, &record).ok());
      EXPECT_EQ(record, bytes);
      auto bundle_or = DecodeBundle(record);
      ASSERT_TRUE(bundle_or.ok());
      const Bundle& bundle = **bundle_or;
      const ArchivedSummary* summary = store->Summary(id);
      ASSERT_NE(summary, nullptr);
      EXPECT_EQ(summary->size, bundle.size());
      EXPECT_EQ(summary->start_time, bundle.start_time());
      EXPECT_EQ(summary->end_time, bundle.end_time());
      EXPECT_EQ(summary->last_update, bundle.last_update());
      std::vector<std::string> words, want;
      for (uint32_t i = 0; i < summary->num_words; ++i) {
        words.push_back(*summary->words[i]);
      }
      for (const auto& [word, count] :
           testing_util::ReferenceTopKeywords(bundle, 10)) {
        want.push_back(word);
      }
      EXPECT_EQ(words, want);
    }
  };
  auto put = [&](BundleStore* store, const Bundle& bundle) {
    ASSERT_TRUE(store->Put(bundle).ok());
    EncodeBundle(bundle, &encoded[bundle.id()]);
  };
  {
    auto store_or = BundleStore::Open(options);
    ASSERT_TRUE(store_or.ok());
    auto& store = *store_or;
    for (BundleId id = 1; id <= 60; ++id) {
      put(store.get(), *RandomSummaryBundle(id, &rng));
    }
    expect_summaries(store.get(), "put");
    // A re-put supersedes: the summary follows the latest record.
    encoded[17].clear();
    put(store.get(), *RandomSummaryBundle(17, &rng));
    expect_summaries(store.get(), "re-put");
  }
  size_t multi_block = 0;
  for (const auto& [id, bytes] : encoded) {
    multi_block += bytes.size() > log::kBlockSize;
  }
  EXPECT_GT(multi_block, 0u);

  auto store_or = BundleStore::Open(options);
  ASSERT_TRUE(store_or.ok());
  expect_summaries(store_or->get(), "reopened");
  ASSERT_TRUE((*store_or)->Compact().ok());
  expect_summaries(store_or->get(), "compacted");
  store_or = BundleStore::Open(options);
  ASSERT_TRUE(store_or.ok());
  expect_summaries(store_or->get(), "compacted and reopened");
}

TEST_F(BundleStoreTest, IndexBytesGaugeTracksTheInMemorySide) {
  BundleStore::Options options = StoreOptions();
  const std::string label = "shard=\"0\"";
  uint64_t filled = 0;
  {
    auto store_or = BundleStore::Open(options);
    ASSERT_TRUE(store_or.ok());
    auto& store = *store_or;
    obs::MetricsRegistry registry;
    store->BindMetrics(&registry, label);
    obs::Gauge* gauge = registry.GetGauge("microprov_store_index_bytes", label);
    EXPECT_EQ(static_cast<uint64_t>(gauge->value()), store->IndexBytes());
    const uint64_t empty = store->IndexBytes();
    Random rng(11);
    for (BundleId id = 1; id <= 50; ++id) {
      ASSERT_TRUE(store->Put(*RandomSummaryBundle(id, &rng)).ok());
      EXPECT_EQ(static_cast<uint64_t>(gauge->value()), store->IndexBytes());
    }
    filled = store->IndexBytes();
    EXPECT_GT(filled, empty + 50 * sizeof(ArchivedSummary));
  }
  // Recovery files the same records in the same order.
  auto store_or = BundleStore::Open(options);
  ASSERT_TRUE(store_or.ok());
  obs::MetricsRegistry registry;
  (*store_or)->BindMetrics(&registry, label);
  EXPECT_EQ((*store_or)->IndexBytes(), filled);
  EXPECT_EQ(static_cast<uint64_t>(
                registry.GetGauge("microprov_store_index_bytes", label)
                    ->value()),
            filled);
}

TEST_F(BundleStoreTest, RecoverySkipsChecksummedButMalformedRecords) {
  BundleStore::Options options = StoreOptions();
  {
    auto store_or = BundleStore::Open(options);
    ASSERT_TRUE(store_or.ok());
    ASSERT_TRUE((*store_or)->Put(*MakeBundle(1, 2)).ok());
  }
  auto record_for = [](BundleId id, const std::string& tag) {
    Bundle bundle(id);
    bundle.AddMessage(MakeMessage(id * 10, kTestEpoch, "u", {tag}, {},
                                  {"alpha", "beta", "gamma"}),
                      kInvalidMessageId, ConnectionType::kText, 0.0f);
    std::string record;
    EncodeBundle(bundle, &record);
    return record;
  };
  // Framed with valid CRCs, so only the bundle codec can reject them:
  // an out-of-range connection type (the byte before the fixed32 score),
  // and a record cut inside its keyword list.
  std::string bad_conn = record_for(900, "badconn");
  bad_conn[bad_conn.size() - 5] = 9;
  ASSERT_FALSE(DecodeBundle(bad_conn).ok());
  std::string cut = record_for(901, "cut");
  cut.resize(cut.find("gamma") + 2);
  ASSERT_FALSE(DecodeBundle(cut).ok());
  {
    auto file_or = Env::Default()->NewWritableFile(options.dir +
                                                   "/bundles-000050.log");
    ASSERT_TRUE(file_or.ok());
    log::Writer writer(std::move(*file_or));
    ASSERT_TRUE(writer.AddRecord(bad_conn).ok());
    ASSERT_TRUE(writer.AddRecord(cut).ok());
    ASSERT_TRUE(writer.AddRecord(record_for(902, "good")).ok());
    ASSERT_TRUE(writer.Close().ok());
  }

  auto store_or = BundleStore::Open(options);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  EXPECT_EQ(store->bundle_count(), 2u);
  EXPECT_TRUE(store->Contains(1));
  EXPECT_TRUE(store->Contains(902));
  for (BundleId id : {900, 901}) {
    EXPECT_FALSE(store->Contains(id)) << id;
    EXPECT_EQ(store->Summary(id), nullptr) << id;
  }
  EXPECT_TRUE(store->FindByTerm(IndicantType::kHashtag, "badconn").empty());
  EXPECT_TRUE(store->FindByTerm(IndicantType::kHashtag, "cut").empty());
  EXPECT_EQ(store->FindByTerm(IndicantType::kHashtag, "good"),
            (std::vector<BundleId>{902}));
  for (const char* word : {"alpha", "beta", "gamma"}) {
    EXPECT_EQ(store->FindByTerm(IndicantType::kKeyword, word),
              (std::vector<BundleId>{902}))
        << word;
  }
  EXPECT_EQ(store->max_bundle_id(), 902u);
}

}  // namespace
}  // namespace microprov
