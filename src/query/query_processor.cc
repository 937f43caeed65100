#include "query/query_processor.h"

#include <algorithm>
#include <iterator>

#include "core/candidate_accumulator.h"

namespace microprov {
namespace {

/// Slack for the prune comparison: the upper bound's arithmetic is
/// associated differently from the score's, so a candidate is skipped
/// only when its bound sits below the kth score by more than any
/// accumulated rounding error (scores live in [0, ~2], where double
/// error is < 1e-14). Candidates whose bound ties the threshold are
/// scored — the bundle-id tie-break could still admit them — which is
/// what keeps pruned and unpruned runs byte-identical.
constexpr double kPruneSlack = 1e-12;

/// Per-thread reusable buffers for the bundle query pipeline: the plan's
/// term vectors, the epoch-stamped candidate set, the k-bounded heap,
/// the archived-id list and the archived-record read buffer.
/// Thread-local rather than per-processor so Search stays const and safe
/// to call concurrently, and each shard worker searching its own shard
/// has its own scratch. Steady-state, a query on a warmed thread
/// performs no allocations until the k winners are materialized, apart
/// from the archive's candidate lookups.
struct QueryScratch {
  QueryPlanScratch plan;
  CandidateAccumulator candidates;
  std::vector<BundleSearchResult> heap;
  std::vector<BundleId> archived_ids;
  std::string record;
};

QueryScratch& LocalScratch() {
  static thread_local QueryScratch scratch;
  return scratch;
}

/// Pushes `hit` into the k-bounded heap. BundleResultOrder acts as the
/// heap's operator<, so the "maximum" at the front is the last-sorting —
/// i.e. worst — retained hit, and a full heap admits `hit` only by
/// evicting it.
void PushBounded(std::vector<BundleSearchResult>* heap, size_t k,
                 BundleSearchResult hit) {
  const BundleResultOrder better;
  if (heap->size() < k) {
    heap->push_back(std::move(hit));
    std::push_heap(heap->begin(), heap->end(), better);
    return;
  }
  if (!better(hit, heap->front())) return;
  std::pop_heap(heap->begin(), heap->end(), better);
  heap->back() = std::move(hit);
  std::push_heap(heap->begin(), heap->end(), better);
}

}  // namespace

void MessageSearchIndex::Add(const Message& msg) {
  std::vector<std::string> tokens = msg.keywords;
  tokens.insert(tokens.end(), msg.hashtags.begin(), msg.hashtags.end());
  tokens.insert(tokens.end(), msg.urls.begin(), msg.urls.end());
  index_.AddDocument(tokens);
  docs_.Add(msg.id, msg.text);
  users_.push_back(msg.user);
  dates_.push_back(msg.date);
}

std::vector<MessageSearchResult> MessageSearchIndex::Search(
    const std::string& query, size_t k, obs::SpanRecorder* recorder,
    uint32_t parent_span) const {
  obs::Span parse_span(recorder, "parse", parent_span);
  ParsedQuery parsed = ParseQuery(query);
  std::vector<std::string> terms = parsed.keywords;
  terms.insert(terms.end(), parsed.hashtags.begin(), parsed.hashtags.end());
  terms.insert(terms.end(), parsed.urls.begin(), parsed.urls.end());
  parse_span.End();
  obs::Span topk_span(recorder, "topk", parent_span);
  Searcher searcher(&index_);
  // Thread-local (not a mutable member): concurrent Search calls on one
  // index must not share scoring buffers.
  static thread_local SearcherScratch scratch;
  std::vector<MessageSearchResult> out;
  for (const SearchHit& hit : searcher.TopK(terms, k, &scratch)) {
    out.push_back(MessageSearchResult{
        docs_.ExternalId(hit.doc), hit.score, users_[hit.doc],
        dates_[hit.doc], docs_.Snippet(hit.doc)});
  }
  return out;
}

size_t MessageSearchIndex::ApproxMemoryUsage() const {
  size_t total = index_.ApproxMemoryUsage() + docs_.ApproxMemoryUsage();
  for (const auto& u : users_) total += u.capacity();
  total += dates_.capacity() * sizeof(Timestamp);
  return total;
}

void BundleQueryProcessor::BindMetrics(obs::MetricsRegistry* registry) {
  pruned_counter_ = registry->GetCounter(
      "microprov_query_candidates_pruned_total", "",
      "Candidates skipped by the top-k upper-bound prune");
  examined_hist_ = registry->GetHistogram(
      "microprov_query_candidates_examined", "",
      "Candidate bundles examined per query (live + archived)");
  scored_hist_ = registry->GetHistogram(
      "microprov_query_candidates_scored", "",
      "Candidate bundles fully scored per query (examined minus pruned)");
}

std::vector<BundleSearchResult> BundleQueryProcessor::Search(
    const BundleQuery& query, obs::SpanRecorder* recorder,
    uint32_t parent_span, uint32_t shard,
    obs::QueryShardTrace* shard_trace) const {
  obs::Span parse_span(recorder, "parse", parent_span, shard);
  ParsedQuery parsed = ParseQuery(query.text);
  parse_span.End();
  return SearchParsed(parsed, query, recorder, parent_span, shard,
                      shard_trace);
}

std::vector<BundleSearchResult> BundleQueryProcessor::SearchParsed(
    const ParsedQuery& parsed, const BundleQuery& query,
    obs::SpanRecorder* recorder, uint32_t parent_span, uint32_t shard,
    obs::QueryShardTrace* shard_trace) const {
  const size_t k = query.k;
  const Timestamp now = query.now;
  const SearchFilters& filters = query.filters;

  const SummaryIndex& index = engine_->summary_index();
  const BundlePool& pool = engine_->pool();
  const size_t total_bundles =
      query.total_bundles > 0 ? query.total_bundles : pool.size();

  QueryScratch& scratch = LocalScratch();

  // Resolve every query term into this shard's id spaces once and fold
  // the per-term IDFs into the plan (the string path recomputed both
  // per candidate).
  obs::Span plan_span(recorder, "plan", parent_span, shard);
  const QueryPlan plan(parsed, engine_->dictionary(), index, total_bundles,
                       now, weights_, &scratch.plan);
  plan_span.End();
  if (shard_trace != nullptr) {
    // The shard's view of the query terms: -1 marks a term this shard
    // never interned (its postings lookup was guaranteed empty).
    auto push_id = [&](TermId id) {
      shard_trace->term_ids.push_back(
          id == kInvalidTermId ? -1 : static_cast<int64_t>(id));
    };
    for (const PlanKeyword& term : plan.keywords()) push_id(term.keyword);
    for (TermId tag : plan.hashtags()) push_id(tag);
    for (TermId url : plan.urls()) push_id(url);
  }
  if (parsed.empty() || k == 0) return {};

  auto passes = [&](size_t size, Timestamp start_time, Timestamp end_time) {
    if (size < filters.min_bundle_size) return false;
    if (filters.since != 0 && end_time < filters.since) return false;
    if (filters.until != 0 && start_time > filters.until) return false;
    return true;
  };

  // Candidate bundles: union of postings for each query term, checking
  // keywords, hashtags (a bare word may name a tag — stem and raw
  // surface form both), and URLs. Dedupe lives in the epoch-stamped
  // accumulator; nothing allocates once it reaches working size.
  obs::Span candidates_span(recorder, "candidates", parent_span, shard);
  CandidateAccumulator& acc = scratch.candidates;
  acc.Reset();
  for (const PlanKeyword& term : plan.keywords()) {
    index.CollectBundles(IndicantType::kKeyword, term.keyword, &acc);
    index.CollectBundles(IndicantType::kHashtag, term.stem_tag, &acc);
    index.CollectBundles(IndicantType::kHashtag, term.raw_tag, &acc);
  }
  for (TermId tag : plan.hashtags()) {
    index.CollectBundles(IndicantType::kHashtag, tag, &acc);
  }
  for (TermId url : plan.urls()) {
    index.CollectBundles(IndicantType::kUrl, url, &acc);
  }
  candidates_span.End();

  // Score into a k-bounded heap of bare {id, score} records; summary
  // words are materialized for the k winners only, below. With pruning
  // on and the heap full, a candidate whose upper bound cannot beat the
  // kth score is dropped before its summaries are touched.
  obs::Span score_span(recorder, "score", parent_span, shard);
  std::vector<BundleSearchResult>& heap = scratch.heap;
  heap.clear();
  uint64_t live_examined = 0;
  uint64_t archived_examined = 0;
  uint64_t pruned = 0;
  uint64_t scored = 0;
  const bool prune = query.prune;
  acc.ForEach([&](BundleId id, const CandidateHits&) {
    const Bundle* bundle = pool.Get(id);
    if (bundle == nullptr ||
        !passes(bundle->size(), bundle->start_time(), bundle->end_time())) {
      return;
    }
    ++live_examined;
    // Every pool bundle is stamped by the shard dictionary the plan was
    // built on (the engine's pool and ImportState both intern into it).
    if (prune && heap.size() == k &&
        plan.UpperBound(*bundle) + kPruneSlack < heap.front().score) {
      ++pruned;
      return;
    }
    ++scored;
    BundleSearchResult hit;
    hit.bundle = id;
    hit.score = plan.Score(*bundle);
    hit.archived = false;
    PushBounded(&heap, k, std::move(hit));
  });
  score_span.End();

  // Archived candidates via the store's term index. Filters run on the
  // store's in-memory summaries; a candidate that passes is read with
  // one pread and scored from its record bytes by string match. The
  // plan's archived bound (every term assumed to hit) lets a full heap
  // skip the read entirely.
  obs::Span archive_span(recorder, "archive", parent_span, shard);
  if (archive_ != nullptr && filters.include_archived) {
    std::vector<BundleId>& archived_ids = scratch.archived_ids;
    archived_ids.clear();
    auto collect = [&](IndicantType type, const std::string& term) {
      for (BundleId id : archive_->FindByTerm(type, term)) {
        if (!acc.Contains(id)) archived_ids.push_back(id);
      }
    };
    // The ranker's matching rule: a stemmed word hits keywords and
    // hashtags, a raw word hashtags, a `#tag` hashtags only.
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
    // Ascending-id order makes which ids fall under the decode cap
    // deterministic (the unordered_set this replaces was not).
    std::sort(archived_ids.begin(), archived_ids.end());
    archived_ids.erase(
        std::unique(archived_ids.begin(), archived_ids.end()),
        archived_ids.end());
    size_t considered = 0;
    for (BundleId id : archived_ids) {
      if (considered++ >= kMaxArchivedCandidates) break;
      if (prune && heap.size() == k &&
          plan.ArchivedUpperBound() + kPruneSlack < heap.front().score) {
        ++archived_examined;
        ++pruned;
        continue;
      }
      const ArchivedSummary* summary = archive_->Summary(id);
      if (summary == nullptr ||
          !passes(summary->size, summary->start_time, summary->end_time)) {
        continue;
      }
      std::string_view record;
      BundleSearchResult hit;
      if (!archive_->ReadRecord(id, &scratch.record, &record).ok() ||
          !plan.ScoreRecord(record, &hit.score).ok()) {
        continue;
      }
      ++archived_examined;
      ++scored;
      hit.bundle = id;
      hit.archived = true;
      PushBounded(&heap, k, std::move(hit));
    }
  }
  archive_span.End();

  if (examined_hist_ != nullptr) {
    examined_hist_->Observe(live_examined + archived_examined);
  }
  if (scored_hist_ != nullptr) scored_hist_->Observe(scored);
  if (pruned_counter_ != nullptr && pruned > 0) {
    pruned_counter_->Increment(pruned);
  }
  if (shard_trace != nullptr) {
    shard_trace->candidates = live_examined;
    shard_trace->archived_candidates = archived_examined;
    shard_trace->examined = live_examined + archived_examined;
    shard_trace->pruned = pruned;
  }

  obs::Span rank_span(recorder, "rank", parent_span, shard);
  std::vector<BundleSearchResult> results(heap.begin(), heap.end());
  std::sort(results.begin(), results.end(), BundleResultOrder{});
  heap.clear();
  rank_span.End();

  // Deferred materialization: summary words, sizes, and timestamps for
  // the k winners only; archived winners come from the store's
  // in-memory summaries.
  obs::Span mat_span(recorder, "materialize", parent_span, shard);
  for (BundleSearchResult& hit : results) {
    if (hit.archived) {
      const ArchivedSummary* summary = archive_->Summary(hit.bundle);
      if (summary == nullptr) continue;
      hit.size = summary->size;
      hit.last_post = summary->end_time;
      for (uint32_t i = 0; i < summary->num_words; ++i) {
        hit.summary_words.push_back(*summary->words[i]);
      }
    } else {
      const Bundle* bundle = pool.Get(hit.bundle);
      if (bundle == nullptr) continue;
      hit.size = bundle->size();
      hit.last_post = bundle->end_time();
      for (auto& [word, count] : bundle->TopKeywords(10)) {
        hit.summary_words.push_back(word);
      }
    }
  }
  mat_span.End();
  if (shard_trace != nullptr) shard_trace->results = results.size();
  return results;
}

std::vector<BundleSearchResult> BundleQueryProcessor::SearchShards(
    const std::vector<const BundleQueryProcessor*>& shards,
    const BundleQuery& query, obs::SpanRecorder* recorder,
    uint32_t parent_span, obs::QueryTraceEvent* event) {
  BundleQuery shard_query = query;
  if (shard_query.total_bundles == 0) {
    for (const BundleQueryProcessor* shard : shards) {
      shard_query.total_bundles += shard->engine_->pool().size();
    }
  }
  if (event != nullptr) {
    event->total_bundles = shard_query.total_bundles;
  }

  // Parse once; every shard evaluates the same ParsedQuery.
  obs::Span parse_span(recorder, "parse", parent_span);
  const ParsedQuery parsed = ParseQuery(shard_query.text);
  parse_span.End();

  const size_t n = shards.size();
  std::vector<std::vector<BundleSearchResult>> pages(n);
  std::vector<obs::QueryShardTrace> traces(event != nullptr ? n : 0);
  for (size_t i = 0; i < n; ++i) {
    pages[i] = shards[i]->SearchShard(
        parsed, shard_query, static_cast<uint32_t>(i), recorder,
        parent_span, event != nullptr ? &traces[i] : nullptr);
  }
  return MergeShards(std::move(pages), query.k, recorder, parent_span,
                     event, std::move(traces));
}

std::vector<BundleSearchResult> BundleQueryProcessor::SearchShard(
    const ParsedQuery& parsed, const BundleQuery& query, uint32_t shard,
    obs::SpanRecorder* recorder, uint32_t parent_span,
    obs::QueryShardTrace* shard_trace) const {
  if (shard_trace != nullptr) shard_trace->shard = shard;
  obs::Span shard_span(recorder, "shard_search", parent_span, shard);
  std::vector<BundleSearchResult> page = SearchParsed(
      parsed, query, recorder, shard_span.id(), shard, shard_trace);
  for (BundleSearchResult& hit : page) hit.shard = shard;
  return page;
}

std::vector<BundleSearchResult> BundleQueryProcessor::MergeShards(
    std::vector<std::vector<BundleSearchResult>> pages, size_t k,
    obs::SpanRecorder* recorder, uint32_t parent_span,
    obs::QueryTraceEvent* event, std::vector<obs::QueryShardTrace> traces) {
  obs::Span merge_span(recorder, "merge", parent_span);
  std::vector<BundleSearchResult> merged;
  for (std::vector<BundleSearchResult>& page : pages) {
    std::move(page.begin(), page.end(), std::back_inserter(merged));
  }
  size_t take = std::min(k, merged.size());
  std::partial_sort(merged.begin(), merged.begin() + take, merged.end(),
                    BundleResultOrder{});
  merged.resize(take);
  merge_span.End();
  if (event != nullptr) {
    event->shards = std::move(traces);
    event->result_count = merged.size();
  }
  return merged;
}

}  // namespace microprov
