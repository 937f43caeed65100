// Microbenchmarks for the storage layer: log append throughput, bundle
// encode/decode, bundle-store point reads and reopen, and the top-k
// summary words of one large bundle.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include <unistd.h>

#include "common/env.h"
#include "common/random.h"
#include "core/indicant_dictionary.h"
#include "core/summary_index.h"
#include "query/query_plan.h"
#include "storage/bundle_codec.h"
#include "storage/bundle_store.h"
#include "storage/log_writer.h"

namespace microprov {
namespace {

std::string TempDir() {
  std::string tmpl = "/tmp/microprov_bench_XXXXXX";
  char* made = ::mkdtemp(tmpl.data());
  return made != nullptr ? made : "/tmp";
}

// Removes a TempDir() and the store directory inside it.
void RemoveStoreDir(const std::string& dir) {
  const std::string store = dir + "/store";
  if (auto names_or = Env::Default()->ListDir(store); names_or.ok()) {
    for (const std::string& name : *names_or) {
      Env::Default()->RemoveFile(store + "/" + name);
    }
  }
  ::rmdir(store.c_str());
  ::rmdir(dir.c_str());
}

std::unique_ptr<Bundle> MakeBundle(BundleId id, size_t n) {
  auto bundle = std::make_unique<Bundle>(id);
  for (size_t i = 0; i < n; ++i) {
    Message msg;
    msg.id = static_cast<MessageId>(id * 1000 + i);
    msg.date = 1251763200 + static_cast<Timestamp>(i);
    msg.user = "user" + std::to_string(i % 5);
    msg.text = "some message body text with a few words #tag";
    msg.hashtags = {"tag"};
    msg.keywords = {"messag", "bodi", "word"};
    bundle->AddMessage(std::move(msg),
                       i == 0 ? kInvalidMessageId
                              : static_cast<MessageId>(id * 1000 + i - 1),
                       ConnectionType::kHashtag, 0.5f);
  }
  return bundle;
}

void BM_LogAppend(benchmark::State& state) {
  const std::string dir = TempDir();
  const std::string path = dir + "/bench.log";
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    state.PauseTiming();
    auto file_or = Env::Default()->NewWritableFile(path);
    log::Writer writer(std::move(*file_or));
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      benchmark::DoNotOptimize(writer.AddRecord(payload));
    }
  }
  state.SetBytesProcessed(state.iterations() * 1000 * state.range(0));
  Env::Default()->RemoveFile(path);
}
BENCHMARK(BM_LogAppend)->Arg(128)->Arg(4096)->Arg(65536);

void BM_BundleEncode(benchmark::State& state) {
  auto bundle = MakeBundle(1, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::string encoded;
    EncodeBundle(*bundle, &encoded);
    benchmark::DoNotOptimize(encoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BundleEncode)->Arg(10)->Arg(100)->Arg(1000);

void BM_BundleDecode(benchmark::State& state) {
  auto bundle = MakeBundle(1, static_cast<size_t>(state.range(0)));
  std::string encoded;
  EncodeBundle(*bundle, &encoded);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeBundle(encoded));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BundleDecode)->Arg(10)->Arg(100)->Arg(1000);

// A point read with decode: one pread of the framed record, then
// DecodeBundle. The store keeps no decoded bundles, so every read pays
// both.
void BM_BundleStoreGet(benchmark::State& state) {
  const std::string dir = TempDir();
  BundleStore::Options options;
  options.dir = dir + "/store";
  {
    auto store_or = BundleStore::Open(options);
    auto& store = *store_or;
    const size_t kBundles = 512;
    for (BundleId id = 1; id <= kBundles; ++id) {
      store->Put(*MakeBundle(id, 20));
    }
    BundleId id = 1;
    for (auto _ : state) {
      benchmark::DoNotOptimize(store->Get(1 + (id++ % kBundles)));
    }
  }
  state.SetItemsProcessed(state.iterations());
  RemoveStoreDir(dir);
}
BENCHMARK(BM_BundleStoreGet);

// A bundle shaped like an archived firehose one: 1-2 hashtags and 8
// keywords per message, drawn from skewed vocabularies (so counts tie
// and repeat as in real summaries).
std::unique_ptr<Bundle> MakeTermBundle(BundleId id, size_t n, Random* rng) {
  auto bundle = std::make_unique<Bundle>(id);
  auto skewed = [&](size_t range) {
    return rng->Uniform(1 + rng->Uniform(range));
  };
  for (size_t i = 0; i < n; ++i) {
    Message msg;
    msg.id = static_cast<MessageId>(id * 1000 + i);
    msg.date = 1251763200 + static_cast<Timestamp>(i);
    msg.user = "user" + std::to_string(skewed(2000));
    msg.text = "a message body of about the usual length for a post";
    for (size_t t = 1 + rng->Uniform(2); t > 0; --t) {
      msg.hashtags.push_back("tag" + std::to_string(skewed(400)));
    }
    for (int w = 0; w < 8; ++w) {
      msg.keywords.push_back("word" + std::to_string(skewed(20000)));
    }
    bundle->AddMessage(std::move(msg),
                       i == 0 ? kInvalidMessageId
                              : static_cast<MessageId>(id * 1000 + i - 1),
                       ConnectionType::kText, 0.5f);
  }
  return bundle;
}

// Reopening a store: recovery scans every record and rebuilds the
// archive's term index.
void BM_BundleStoreOpen(benchmark::State& state) {
  const std::string dir = TempDir();
  BundleStore::Options options;
  options.dir = dir + "/store";
  {
    auto store_or = BundleStore::Open(options);
    Random rng(7);
    for (BundleId id = 1; id <= static_cast<BundleId>(state.range(0));
         ++id) {
      (*store_or)->Put(*MakeTermBundle(id, 2 + rng.Uniform(60), &rng));
    }
  }
  for (auto _ : state) {
    auto store_or = BundleStore::Open(options);
    benchmark::DoNotOptimize(store_or);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  RemoveStoreDir(dir);
}
BENCHMARK(BM_BundleStoreOpen)->Arg(1000)->Unit(benchmark::kMillisecond);

// One archived search candidate the way a query scores it: one pread
// of its record, then the record walked in place and matched against
// the query's terms by string, building no Bundle.
void BM_ArchivedCandidateScore(benchmark::State& state) {
  const std::string dir = TempDir();
  BundleStore::Options options;
  options.dir = dir + "/store";
  {
    auto store_or = BundleStore::Open(options);
    auto& store = *store_or;
    Random rng(7);
    const BundleId kBundles = 256;
    for (BundleId id = 1; id <= kBundles; ++id) {
      store->Put(*MakeTermBundle(id, 2 + rng.Uniform(60), &rng));
    }
    // The shard dictionary holds none of the terms: every match is by
    // the record's strings, as for an archived bundle.
    IndicantDictionary dict;
    SummaryIndex index(&dict);
    const ParsedQuery parsed = ParseQuery("word1 word3 word12 #tag2");
    QueryPlanScratch scratch;
    const QueryPlan plan(parsed, dict, index, /*total_bundles=*/2000,
                         /*now=*/1251763200 + 3600, QueryWeights{},
                         &scratch);
    std::string buffer;
    std::string_view record;
    double score = 0.0;
    BundleId id = 0;
    for (auto _ : state) {
      const BundleId candidate = 1 + (id++ % kBundles);
      store->ReadRecord(candidate, &buffer, &record);
      plan.ScoreRecord(record, &score);
      benchmark::DoNotOptimize(score);
    }
  }
  state.SetItemsProcessed(state.iterations());
  RemoveStoreDir(dir);
}
BENCHMARK(BM_ArchivedCandidateScore);

// Summary words of one bundle with about 6k distinct keywords, the size
// of the largest live bundle on a firehose stream.
void BM_TopKeywords(benchmark::State& state) {
  Random rng(61);
  Bundle bundle(1);
  for (MessageId i = 0; i < 3000; ++i) {
    Message msg;
    msg.id = i;
    msg.user = "user";
    for (int w = 0; w < 6; ++w) {
      msg.keywords.push_back("word" + std::to_string(rng.Uniform(6000)));
    }
    bundle.AddMessage(std::move(msg), i == 0 ? kInvalidMessageId : 0,
                      ConnectionType::kText, 0.5f);
  }
  state.counters["distinct"] = static_cast<double>(
      bundle.id_counts(IndicantType::kKeyword).size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(bundle.TopKeywords(10));
  }
}
BENCHMARK(BM_TopKeywords);

}  // namespace
}  // namespace microprov
