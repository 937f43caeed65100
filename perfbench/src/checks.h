#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "gen/generator.h"
#include "query/bundle_ranker.h"
#include "query/query_processor.h"
#include "service/service.h"
#include "storage/bundle_store.h"

namespace perfbench {

using Page = std::vector<microprov::BundleSearchResult>;

/// A generated stream with the generator's ground truth.
struct Stream {
  std::vector<microprov::Message> messages;
  microprov::GroundTruth truth;
};

/// A ground-truth event and the tag a user would search it by.
struct EventInfo {
  int64_t id = 0;
  /// Signature tag: the hashtag most of the event's messages carry.
  std::string tag;
  uint32_t size = 0;
};

/// Events with at least `min_size` messages, in order of their first
/// message. Ties between tags break by name, so the result is a
/// function of the stream alone.
std::vector<EventInfo> SignatureEvents(const Stream& stream,
                                       size_t min_size);

/// Resolves a hit to the bundle it names, live or archived. Reads shard
/// engines and stores directly, so it is valid only while the service
/// is quiescent (after Flush, with no Ingest since).
class BundleLookup {
 public:
  explicit BundleLookup(const microprov::Service* service);

  /// The hit's bundle, or nullptr. `hold` keeps a decoded archived
  /// bundle alive while the caller reads it.
  const microprov::Bundle* Find(
      const microprov::BundleSearchResult& hit,
      std::shared_ptr<const microprov::Bundle>* hold);

 private:
  const microprov::Service* service_;
  std::vector<microprov::BundleStore*> stores_;
};

/// Checks a page's shape: at most k hits, ordered by BundleResultOrder,
/// no (shard, bundle) twice. One failed check per violated property.
void CheckPageShape(const Page& page, size_t k, const std::string& label,
                    Outcome* outcome);

/// Archived hits seen by CheckPageHits, and those whose bundle holds no
/// message with a query term.
struct ArchivedTally {
  uint64_t hits = 0;
  uint64_t lacking_term = 0;
};

/// Checks, as one operation each, that every hit's bundle exists and
/// that every live hit's bundle holds a message with a query term, the
/// terms matched by type as the ranker matches them. Archived hits that
/// lack a term are only tallied in `archived`: the archive's term index
/// keys hashtags and keywords together, so a '#tag' query reaches
/// archived bundles that carry the word only as a keyword, and how many
/// a seeded stream yields depends on the seed (the fault probe fails on
/// a fixed stream instead). With `event` set, returns the share of the
/// event's messages the page's bundles hold (its recall); otherwise 0.
double CheckPageHits(const Page& page, const std::string& text,
                     const Stream& stream, const EventInfo* event,
                     BundleLookup* lookup, const std::string& label,
                     ArchivedTally* archived, Outcome* outcome);

/// Prints the tally on a line of its own.
void PrintArchivedHits(const ArchivedTally& archived, const std::string& label);

/// Exact page equality: same hits in the same order, same scores.
bool SamePage(const Page& a, const Page& b);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
