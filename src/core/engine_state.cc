#include "core/engine_state.h"

#include <unordered_set>

namespace microprov {

namespace {

void BorrowRecords(const std::vector<BundleRecord>& bundles,
                   std::vector<std::string_view>* view) {
  view->reserve(bundles.size());
  for (const BundleRecord& record : bundles) {
    view->push_back(record.bytes);
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
  BorrowRecords(state.bundles, &records);
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
  BorrowRecords(delta.bundles, &records);
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
  for (size_t j = 1; j < delta.bundles.size(); ++j) {
    if (delta.bundles[j].id <= delta.bundles[j - 1].id) {
      return Status::Corruption("engine delta: bundles not ascending");
    }
  }
  // Removals never target a bundle the same delta upserts (ids are
  // allocated once and a removed bundle is terminal), so a single
  // sorted merge resolves everything: delta records supersede base
  // records with the same id, removed ids drop out entirely.
  std::unordered_set<BundleId> drop(delta.removed.begin(),
                                    delta.removed.end());
  const std::vector<BundleRecord>& base = state->bundles;
  const std::vector<BundleRecord>& ups = delta.bundles;
  std::vector<BundleRecord> merged;
  merged.reserve(base.size() + ups.size());
  size_t i = 0;
  size_t j = 0;
  while (i < base.size() || j < ups.size()) {
    const bool take_base =
        j >= ups.size() || (i < base.size() && base[i].id < ups[j].id);
    if (take_base) {
      if (drop.count(base[i].id) == 0) merged.push_back(base[i]);
      ++i;
    } else {
      if (i < base.size() && base[i].id == ups[j].id) {
        ++i;  // superseded by the delta's newer record
      }
      if (drop.count(ups[j].id) == 0) merged.push_back(ups[j]);
      ++j;
    }
  }
  state->bundles = std::move(merged);
  for (std::shared_ptr<const std::string>& buffer : delta.buffers) {
    state->buffers.push_back(std::move(buffer));
  }
  state->messages_ingested = delta.messages_ingested;
  state->next_bundle_id = delta.next_bundle_id;
  state->pool_stats = delta.pool_stats;
  return Status::OK();
}

}  // namespace microprov
