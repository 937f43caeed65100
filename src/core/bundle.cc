#include "core/bundle.h"

#include <algorithm>

#include "common/memory_usage.h"

namespace microprov {

Bundle::Bundle(BundleId id, IndicantDictionary* dict)
    : id_(id),
      owned_dict_(dict == nullptr ? std::make_unique<IndicantDictionary>()
                                  : nullptr),
      dict_(dict == nullptr ? owned_dict_.get() : dict) {}

void Bundle::BumpCount(IndicantType type, TermId term) {
  auto [it, inserted] =
      counts_[static_cast<size_t>(type)].try_emplace(term, 0);
  ++it->second;
  if (inserted) {
    mem_usage_ += sizeof(std::pair<TermId, uint32_t>) + 2 * sizeof(void*) +
                  kMallocOverhead;
  }
}

void Bundle::AddMessage(Message msg, MessageId parent, ConnectionType type,
                        float score) {
  dict_->InternMessage(&msg);
  const Timestamp date = msg.date;
  if (messages_.empty()) {
    start_time_ = date;
    end_time_ = date;
  } else {
    start_time_ = std::min(start_time_, date);
    end_time_ = std::max(end_time_, date);
  }
  last_update_ = std::max(last_update_, date);

  mem_usage_ += msg.ApproxMemoryUsage() + sizeof(BundleMessage) -
                sizeof(Message);

  for (TermId tag : msg.term_ids.hashtags) {
    BumpCount(IndicantType::kHashtag, tag);
  }
  for (TermId url : msg.term_ids.urls) {
    BumpCount(IndicantType::kUrl, url);
  }
  size_t kw = 0;
  for (TermId keyword : msg.term_ids.keywords) {
    if (kw++ >= kSummaryKeywordsPerMessage) break;
    BumpCount(IndicantType::kKeyword, keyword);
  }
  const TermId user = msg.term_ids.user;
  if (user != kInvalidTermId) {
    BumpCount(IndicantType::kUser, user);
  }

  by_id_[msg.id] = messages_.size();
  mem_usage_ += sizeof(std::pair<MessageId, size_t>) + 2 * sizeof(void*) +
                kMallocOverhead;
  if (user != kInvalidTermId) {
    auto [uit, user_inserted] =
        latest_by_user_.try_emplace(user, messages_.size());
    if (!user_inserted && messages_[uit->second].msg.date <= date) {
      uit->second = messages_.size();
    }
    if (user_inserted) {
      mem_usage_ += sizeof(std::pair<TermId, size_t>) + 2 * sizeof(void*) +
                    kMallocOverhead;
    }
  }
  messages_.push_back(BundleMessage{std::move(msg), parent, type, score});
}

uint32_t Bundle::CountOf(IndicantType type, std::string_view value) const {
  return CountOfId(type, dict_->Find(type, value));
}

const BundleMessage* Bundle::LatestByUser(std::string_view user) const {
  return LatestByUserId(dict_->Find(IndicantType::kUser, user));
}

const BundleMessage* Bundle::LatestByUserId(TermId user) const {
  if (user == kInvalidTermId) return nullptr;
  auto it = latest_by_user_.find(user);
  if (it == latest_by_user_.end()) return nullptr;
  return &messages_[it->second];
}

const BundleMessage* Bundle::Find(MessageId id) const {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return nullptr;
  return &messages_[it->second];
}

std::vector<Edge> Bundle::Edges() const {
  std::vector<Edge> edges;
  edges.reserve(messages_.size());
  for (const BundleMessage& bm : messages_) {
    if (bm.parent == kInvalidMessageId) continue;
    edges.push_back(Edge{bm.parent, bm.msg.id, bm.conn_type,
                         bm.conn_score});
  }
  return edges;
}

std::vector<std::pair<std::string, uint32_t>> Bundle::TopKeywords(
    size_t k) const {
  const TermCounts& counts = id_counts(IndicantType::kKeyword);
  std::vector<std::pair<TermId, uint32_t>> top(counts.begin(), counts.end());
  SelectTopByCount(&top, k, [this](const std::pair<TermId, uint32_t>& e)
                                -> const std::string& {
    return dict_->Resolve(IndicantType::kKeyword, e.first);
  });
  std::vector<std::pair<std::string, uint32_t>> out;
  out.reserve(top.size());
  for (const auto& [term, count] : top) {
    out.emplace_back(dict_->Resolve(IndicantType::kKeyword, term), count);
  }
  return out;
}

}  // namespace microprov
