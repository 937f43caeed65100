#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace perfbench {

using microprov::Bundle;
using microprov::BundleSearchResult;
using microprov::Message;

std::vector<EventInfo> SignatureEvents(const Stream& stream,
                                       size_t min_size) {
  struct Tally {
    size_t first = 0;
    uint32_t size = 0;
    std::map<std::string, uint32_t> tags;
  };
  std::unordered_map<int64_t, Tally> tallies;
  const auto& event_of = stream.truth.event_of;
  for (size_t i = 0; i < stream.messages.size(); ++i) {
    const int64_t event = event_of[i];
    if (event == -1) continue;
    auto [it, inserted] = tallies.try_emplace(event);
    if (inserted) it->second.first = i;
    ++it->second.size;
    for (const std::string& tag : stream.messages[i].hashtags) {
      ++it->second.tags[tag];
    }
  }
  std::vector<std::pair<size_t, EventInfo>> ordered;
  for (const auto& [id, tally] : tallies) {
    if (tally.size < min_size || tally.tags.empty()) continue;
    EventInfo info;
    info.id = id;
    info.size = tally.size;
    uint32_t best = 0;
    for (const auto& [tag, count] : tally.tags) {
      if (count > best) {
        best = count;
        info.tag = tag;
      }
    }
    ordered.emplace_back(tally.first, std::move(info));
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<EventInfo> out;
  out.reserve(ordered.size());
  for (auto& entry : ordered) out.push_back(std::move(entry.second));
  return out;
}

BundleLookup::BundleLookup(const microprov::Service* service)
    : service_(service) {
  for (size_t i = 0; i < service->num_shards(); ++i) {
    // The service builds every shard archive as a BundleStore.
    stores_.push_back(dynamic_cast<microprov::BundleStore*>(
        service->sharded().shard(i).archive()));
  }
}

const Bundle* BundleLookup::Find(const BundleSearchResult& hit,
                                 std::shared_ptr<const Bundle>* hold) {
  if (hit.shard >= stores_.size()) return nullptr;
  if (!hit.archived) {
    return service_->sharded().shard(hit.shard).pool().Get(hit.bundle);
  }
  microprov::BundleStore* store = stores_[hit.shard];
  if (store == nullptr) return nullptr;
  auto bundle_or = store->Get(hit.bundle);
  if (!bundle_or.ok()) return nullptr;
  *hold = *bundle_or;
  return hold->get();
}

namespace {

bool Contains(const std::vector<std::string>& haystack,
              const std::string& needle) {
  return std::find(haystack.begin(), haystack.end(), needle) !=
         haystack.end();
}

bool AnyIn(const std::vector<std::string>& needles,
           const std::vector<std::string>& haystack) {
  for (const std::string& needle : needles) {
    if (Contains(haystack, needle)) return true;
  }
  return false;
}

/// True when the message carries one of the query's terms, matched by
/// type as BundleIndicantScore and BundleTextScore match them: a query
/// hashtag against hashtags, a query word against keywords, or (raw or
/// stemmed) against hashtags, a URL against URLs.
bool MessageHasTerm(const microprov::ParsedQuery& query, const Message& msg) {
  return AnyIn(query.hashtags, msg.hashtags) ||
         AnyIn(query.keywords, msg.keywords) ||
         AnyIn(query.keywords, msg.hashtags) ||
         AnyIn(query.raw_words, msg.hashtags) || AnyIn(query.urls, msg.urls);
}

}  // namespace

void CheckPageShape(const Page& page, size_t k, const std::string& label,
                    Outcome* outcome) {
  outcome->Check(page.size() <= k, label + ": more than k hits");
  const microprov::BundleResultOrder before;
  bool ordered = true;
  for (size_t i = 1; i < page.size(); ++i) {
    if (!before(page[i - 1], page[i])) ordered = false;
  }
  outcome->Check(ordered, label + ": hits not in BundleResultOrder");
  std::set<std::pair<uint32_t, microprov::BundleId>> seen;
  for (const BundleSearchResult& hit : page) {
    seen.emplace(hit.shard, hit.bundle);
  }
  outcome->Check(seen.size() == page.size(), label + ": duplicate hit");
}

double CheckPageHits(const Page& page, const std::string& text,
                     const Stream& stream, const EventInfo* event,
                     BundleLookup* lookup, const std::string& label,
                     ArchivedTally* archived, Outcome* outcome) {
  const microprov::ParsedQuery parsed = microprov::ParseQuery(text);
  uint64_t covered = 0;
  bool all_found = true;
  bool live_have_term = true;
  for (const BundleSearchResult& hit : page) {
    std::shared_ptr<const Bundle> hold;
    const Bundle* bundle = lookup->Find(hit, &hold);
    if (bundle == nullptr) {
      all_found = false;
      continue;
    }
    bool has_term = false;
    for (const auto& member : bundle->messages()) {
      if (!has_term && MessageHasTerm(parsed, member.msg)) has_term = true;
      const auto id = static_cast<size_t>(member.msg.id);
      if (event != nullptr && id < stream.truth.event_of.size() &&
          stream.truth.event_of[id] == event->id) {
        ++covered;
      }
    }
    if (hit.archived) {
      ++archived->hits;
      if (!has_term) ++archived->lacking_term;
    } else if (!has_term) {
      live_have_term = false;
    }
  }
  outcome->Check(all_found, label + ": hit bundle not found");
  outcome->Check(live_have_term,
                 label + ": live hit bundle lacks every query term");
  if (event == nullptr || event->size == 0) return 0;
  return static_cast<double>(covered) / static_cast<double>(event->size);
}

void PrintArchivedHits(const ArchivedTally& archived,
                       const std::string& label) {
  std::printf("archived hits lacking every query term (%s): %llu of %llu\n",
              label.c_str(),
              static_cast<unsigned long long>(archived.lacking_term),
              static_cast<unsigned long long>(archived.hits));
}

bool SamePage(const Page& a, const Page& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].shard != b[i].shard || a[i].bundle != b[i].bundle ||
        a[i].score != b[i].score || a[i].size != b[i].size ||
        a[i].last_post != b[i].last_post ||
        a[i].archived != b[i].archived ||
        a[i].summary_words != b[i].summary_words) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
