#include "core/engine_state.h"

#include <unordered_set>

namespace microprov {

std::unique_ptr<Bundle> CloneBundle(const Bundle& src,
                                    IndicantDictionary* dict) {
  auto clone = std::make_unique<Bundle>(src.id(), dict);
  for (const BundleMessage& bm : src.messages()) {
    clone->AddMessage(bm.msg, bm.parent, bm.conn_type, bm.conn_score);
  }
  if (src.closed()) clone->Close();
  return clone;
}

namespace {

void BorrowBundles(const std::vector<std::unique_ptr<Bundle>>& bundles,
                   std::vector<const Bundle*>* view) {
  view->reserve(bundles.size());
  for (const std::unique_ptr<Bundle>& bundle : bundles) {
    view->push_back(bundle.get());
  }
}

}  // namespace

EngineStateView::EngineStateView(const EngineState& state)
    : messages_ingested(state.messages_ingested),
      next_bundle_id(state.next_bundle_id),
      pool_stats(state.pool_stats) {
  for (int t = 0; t < kNumIndicantTypes; ++t) {
    terms[t].assign(state.terms[t].begin(), state.terms[t].end());
  }
  BorrowBundles(state.bundles, &bundles);
}

EngineDeltaView::EngineDeltaView(const EngineDelta& delta)
    : messages_ingested(delta.messages_ingested),
      next_bundle_id(delta.next_bundle_id),
      pool_stats(delta.pool_stats),
      removed(delta.removed) {
  for (int t = 0; t < kNumIndicantTypes; ++t) {
    base_terms[t] = delta.base_terms[t];
    new_terms[t].assign(delta.new_terms[t].begin(),
                        delta.new_terms[t].end());
  }
  BorrowBundles(delta.bundles, &bundles);
}

Status ApplyEngineDelta(EngineState* state, EngineDelta&& delta) {
  for (int t = 0; t < kNumIndicantTypes; ++t) {
    if (state->terms[t].size() != delta.base_terms[t]) {
      return Status::Corruption(
          "engine delta: term cursor does not match base state");
    }
    for (std::string& term : delta.new_terms[t]) {
      state->terms[t].push_back(std::move(term));
    }
  }
  for (size_t j = 0; j < delta.bundles.size(); ++j) {
    if (delta.bundles[j] == nullptr) {
      return Status::Corruption("engine delta: null bundle");
    }
    if (j > 0 &&
        delta.bundles[j]->id() <= delta.bundles[j - 1]->id()) {
      return Status::Corruption("engine delta: bundles not ascending");
    }
  }
  // Removals never target a bundle the same delta upserts (ids are
  // allocated once and a removed bundle is terminal), so a single
  // sorted merge resolves everything: delta bundles supersede base
  // bundles with the same id, removed ids drop out entirely.
  std::unordered_set<BundleId> drop(delta.removed.begin(),
                                    delta.removed.end());
  std::vector<std::unique_ptr<Bundle>>& base = state->bundles;
  std::vector<std::unique_ptr<Bundle>>& ups = delta.bundles;
  std::vector<std::unique_ptr<Bundle>> merged;
  merged.reserve(base.size() + ups.size());
  size_t i = 0;
  size_t j = 0;
  while (i < base.size() || j < ups.size()) {
    const bool take_base =
        j >= ups.size() ||
        (i < base.size() && base[i]->id() < ups[j]->id());
    if (take_base) {
      if (drop.count(base[i]->id()) == 0) {
        merged.push_back(std::move(base[i]));
      }
      ++i;
    } else {
      if (i < base.size() && base[i]->id() == ups[j]->id()) {
        ++i;  // superseded by the delta's newer clone
      }
      if (drop.count(ups[j]->id()) == 0) {
        merged.push_back(std::move(ups[j]));
      }
      ++j;
    }
  }
  base = std::move(merged);
  state->messages_ingested = delta.messages_ingested;
  state->next_bundle_id = delta.next_bundle_id;
  state->pool_stats = delta.pool_stats;
  return Status::OK();
}

}  // namespace microprov
