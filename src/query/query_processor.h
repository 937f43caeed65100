#ifndef MICROPROV_QUERY_QUERY_PROCESSOR_H_
#define MICROPROV_QUERY_QUERY_PROCESSOR_H_

#include <string>
#include <vector>

#include "common/slab_arena.h"
#include "core/engine.h"
#include "index/doc_store.h"
#include "index/memory_index.h"
#include "index/searcher.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "obs/span.h"
#include "query/bundle_ranker.h"
#include "query/query_plan.h"
#include "storage/bundle_store.h"

namespace microprov {

/// One row of the paper's Fig. 2(a) result list: a bundle with its summary
/// words, size, and last-post time.
struct BundleSearchResult {
  BundleId bundle = kInvalidBundleId;
  double score = 0.0;
  size_t size = 0;
  Timestamp last_post = 0;
  std::vector<std::string> summary_words;
  /// True when the bundle was served from the on-disk archive rather
  /// than the live pool.
  bool archived = false;
  /// Which shard answered, for results produced by cross-shard fan-out
  /// (SearchShards / microprov::Service). Always 0 for a single engine.
  uint32_t shard = 0;
};

/// The one total order on search hits, shared by the per-shard top-k heap
/// and the cross-shard merge: score descending, then shard, then bundle
/// id ascending. Within a single shard every hit carries the same shard
/// index, so the order degrades to (score desc, bundle asc) there — the
/// merge and the per-shard ranking can never disagree on a tie.
struct BundleResultOrder {
  bool operator()(const BundleSearchResult& a,
                  const BundleSearchResult& b) const {
    if (a.score != b.score) return a.score > b.score;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.bundle < b.bundle;
  }
};

/// One row of the paper's Fig. 1 flat search: a single message.
struct MessageSearchResult {
  MessageId message = kInvalidMessageId;
  double score = 0.0;
  std::string user;
  Timestamp date = 0;
  std::string text;
};

/// Flat keyword search over individual messages — the traditional
/// retrieval paradigm the paper contrasts against (Fig. 1). Backed by the
/// text-search substrate (BM25 over message keywords + hashtags).
///
/// Search is const and safe to call from multiple threads concurrently
/// (its scratch buffers are thread-local); Add must not race Search.
class MessageSearchIndex {
 public:
  MessageSearchIndex() : index_(&arena_) {}

  /// Indexes a message (keywords, hashtags, URLs).
  void Add(const Message& msg);

  /// `recorder`, when set, receives "parse" / "topk" stage spans under
  /// `parent_span`.
  std::vector<MessageSearchResult> Search(
      const std::string& query, size_t k,
      obs::SpanRecorder* recorder = nullptr,
      uint32_t parent_span = 0) const;

  size_t size() const { return docs_.size(); }
  size_t ApproxMemoryUsage() const;

 private:
  // Postings live in a private slab arena (no per-term heap strings);
  // declared before the index so it outlives it on destruction.
  SlabArena arena_;
  MemoryIndex index_;
  DocStore docs_;
  std::vector<std::string> users_;
  std::vector<Timestamp> dates_;
};

/// Optional result filters, mirroring the paper's demo-site list view
/// (bundles with size and last-post columns, browsable by time).
struct SearchFilters {
  /// Keep bundles whose activity overlaps [since, until] (0 = open end).
  Timestamp since = 0;
  Timestamp until = 0;
  /// Drop bundles smaller than this (singleton/noise suppression).
  size_t min_bundle_size = 0;
  /// Whether to consult the attached archive at all.
  bool include_archived = true;
};

/// A bundle retrieval request (the paper's Fig. 2 search box). One
/// struct replaces the former (query, k, now) / (query, k, now, filters)
/// overload pair; build with designated initializers:
///
///   processor.Search({.text = "#redsox", .k = 5, .now = clock.Now()});
struct BundleQuery {
  /// Free-text query; parsed like message text (stemming, '#tag', URLs).
  std::string text;
  /// Result-page size.
  size_t k = 10;
  /// Query time for Eq. 7 freshness; callers pass the stream clock.
  Timestamp now = 0;
  SearchFilters filters;
  /// Bundle population used for IDF normalization in the text score
  /// (0 = the engine's own live pool size). Cross-shard fan-out sets the
  /// global bundle count here so per-shard scores stay comparable.
  size_t total_bundles = 0;
  /// Upper-bound pruning: skip candidates whose score bound cannot beat
  /// the current kth result. Never changes which results come back (the
  /// bound dominates the score); off is for A/B measurement.
  bool prune = true;
};

/// Bundle retrieval (Section V-C): queries return ranked provenance
/// bundles from the engine's live pool, scored by Eq. 7. With an
/// attached BundleStore, bundles that refinement moved to disk are
/// searched too (via the store's term index) and marked `archived`.
///
/// Evaluation is id-native: a QueryPlan resolves the query's terms into
/// the shard dictionary once, candidates stream through an epoch-stamped
/// accumulator into a k-bounded heap, and only the k winners are
/// materialized (summary words, sizes). Search is const and thread-safe
/// against other Search calls (scratch is thread-local), but not against
/// mutation of its engine: the engine's own writer must run it (as
/// Service does, on the shard worker) or be quiescent.
class BundleQueryProcessor {
 public:
  /// `metrics`, when set, receives per-shard candidate-count
  /// distributions and the pruned-candidate counter (shared across shard
  /// processors bound to the same registry; must outlive the processor).
  explicit BundleQueryProcessor(const ProvenanceEngine* engine,
                                QueryWeights weights = {},
                                BundleStore* archive = nullptr,
                                obs::MetricsRegistry* metrics = nullptr)
      : engine_(engine), weights_(weights), archive_(archive) {
    if (metrics != nullptr) BindMetrics(metrics);
  }

  /// Top-k bundles for the request. Candidates are fetched through the
  /// summary index (term -> bundle postings), so cost scales with
  /// matching bundles, not pool size.
  std::vector<BundleSearchResult> Search(const BundleQuery& query) const {
    return Search(query, nullptr, 0, obs::kSpanNoShard, nullptr);
  }

  /// Traced variant: `recorder` (nullable) receives per-stage spans
  /// ("parse", "plan", "candidates", "score", "archive", "rank",
  /// "materialize") parented under `parent_span` and tagged with
  /// `shard`; `shard_trace` (nullable) is filled with the shard's
  /// interned term ids and examined/pruned/result counts.
  std::vector<BundleSearchResult> Search(
      const BundleQuery& query, obs::SpanRecorder* recorder,
      uint32_t parent_span, uint32_t shard,
      obs::QueryShardTrace* shard_trace) const;

  /// Cross-shard fan-out: runs `query` against every processor (one per
  /// shard of a ShardedEngine), tags each hit with its shard index, and
  /// merges the per-shard top-k into a single top-k by Eq. 7 score.
  /// Scores use the combined live-bundle count across shards, so the
  /// merge is order-equivalent to a single engine holding the union —
  /// modulo bundles the shard routing split (see DESIGN.md). Shards are
  /// searched one after another on the calling thread.
  static std::vector<BundleSearchResult> SearchShards(
      const std::vector<const BundleQueryProcessor*>& shards,
      const BundleQuery& query) {
    return SearchShards(shards, query, nullptr, 0, nullptr);
  }

  /// Traced fan-out: opens a "parse" span, one "shard_search" span per
  /// shard and a "merge" span under `parent_span`, and fills `event`
  /// (when set) with the resolved IDF total and per-shard contributions.
  static std::vector<BundleSearchResult> SearchShards(
      const std::vector<const BundleQueryProcessor*>& shards,
      const BundleQuery& query, obs::SpanRecorder* recorder,
      uint32_t parent_span, obs::QueryTraceEvent* event);

  /// One shard's part of a fan-out whose caller parsed the query once
  /// and set `query.total_bundles` to the population across shards.
  /// Runs under a "shard_search" span and tags each hit with `shard`.
  std::vector<BundleSearchResult> SearchShard(
      const ParsedQuery& parsed, const BundleQuery& query, uint32_t shard,
      obs::SpanRecorder* recorder, uint32_t parent_span,
      obs::QueryShardTrace* shard_trace) const;

  /// Merges per-shard pages into one top-`k` page under
  /// BundleResultOrder, inside a "merge" span. With `event` set, moves
  /// `traces` (one per shard, or empty) into it with the result count.
  static std::vector<BundleSearchResult> MergeShards(
      std::vector<std::vector<BundleSearchResult>> pages, size_t k,
      obs::SpanRecorder* recorder, uint32_t parent_span,
      obs::QueryTraceEvent* event,
      std::vector<obs::QueryShardTrace> traces);

  /// Cap on archived bundles decoded per query (point reads from disk).
  static constexpr size_t kMaxArchivedCandidates = 64;

 private:
  void BindMetrics(obs::MetricsRegistry* registry);

  /// The post-parse pipeline, shared by Search (which parses) and
  /// SearchShard (whose caller parsed once for every shard).
  std::vector<BundleSearchResult> SearchParsed(
      const ParsedQuery& parsed, const BundleQuery& query,
      obs::SpanRecorder* recorder, uint32_t parent_span, uint32_t shard,
      obs::QueryShardTrace* shard_trace) const;

  const ProvenanceEngine* engine_;
  QueryWeights weights_;
  BundleStore* archive_;

  // Observability handles (null without a registry; never owned).
  obs::Counter* pruned_counter_ = nullptr;
  obs::HistogramMetric* examined_hist_ = nullptr;
  obs::HistogramMetric* scored_hist_ = nullptr;
};

}  // namespace microprov

#endif  // MICROPROV_QUERY_QUERY_PROCESSOR_H_
