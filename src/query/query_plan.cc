#include "query/query_plan.h"

#include <algorithm>
#include <memory>

#include "core/quality.h"
#include "index/bm25.h"
#include "storage/bundle_codec.h"

namespace microprov {

QueryPlan::QueryPlan(const ParsedQuery& parsed,
                     const IndicantDictionary& dict,
                     const SummaryIndex& index, size_t total_bundles,
                     Timestamp now, const QueryWeights& weights,
                     QueryPlanScratch* scratch)
    : parsed_(&parsed),
      scratch_(scratch),
      weights_(weights),
      now_(now),
      gamma_(1.0 - weights.alpha_text - weights.beta_indicant),
      num_keywords_(parsed.keywords.size()),
      num_indicant_terms_(parsed.hashtags.size() + parsed.urls.size() +
                          parsed.keywords.size()) {
  scratch_->keywords.clear();
  scratch_->hashtags.clear();
  scratch_->urls.clear();

  // s(q,B)'s normalizer: the idf of a term in one of two bundles.
  max_idf_ = Bm25Idf(
      static_cast<uint32_t>(std::max<size_t>(total_bundles, 2)), 1);

  double idf_sum = 0.0;       // over keywords resolved in this shard
  double idf_sum_all = 0.0;   // over every keyword (archived bound)
  for (size_t i = 0; i < parsed.keywords.size(); ++i) {
    PlanKeyword term;
    term.keyword = dict.Find(IndicantType::kKeyword, parsed.keywords[i]);
    term.stem_tag = dict.Find(IndicantType::kHashtag, parsed.keywords[i]);
    if (i < parsed.raw_words.size()) {
      term.raw_tag = dict.Find(IndicantType::kHashtag,
                               parsed.raw_words[i]);
    }
    // A term with no live posting gets df=0 -> max(df,1)=1; its tf is 0
    // against every live bundle, but an archived record can match it.
    const size_t df =
        index.DocumentFrequencyId(IndicantType::kKeyword, term.keyword);
    term.idf = Bm25Idf(
        static_cast<uint32_t>(std::max<size_t>(total_bundles, 1)),
        static_cast<uint32_t>(std::max<size_t>(df, 1)));
    if (term.keyword != kInvalidTermId) idf_sum += term.idf;
    idf_sum_all += term.idf;
    scratch_->keywords.push_back(term);
  }
  for (const std::string& tag : parsed.hashtags) {
    scratch_->hashtags.push_back(dict.Find(IndicantType::kHashtag, tag));
  }
  for (const std::string& url : parsed.urls) {
    scratch_->urls.push_back(dict.Find(IndicantType::kUrl, url));
  }

  // Upper bounds per Eq. 7 component. Text: every matching term
  // contributes at most idf (tf/(tf+2) < 1), normalized like TextScore.
  // Indicant closeness: only terms resolvable in this shard can hit a
  // live bundle. Quality: BundleQuality is in [0, 1]. Freshness is
  // added per candidate by UpperBound() (exact, and dropped when the
  // configured weights make gamma negative — the bound must only grow).
  double s_upper = 0.0;
  double s_upper_all = 0.0;
  if (num_keywords_ > 0 && max_idf_ > 0.0) {
    s_upper = idf_sum /
              (static_cast<double>(num_keywords_) * max_idf_);
    s_upper_all = idf_sum_all /
                  (static_cast<double>(num_keywords_) * max_idf_);
  }
  size_t resolvable = 0;
  for (const PlanKeyword& term : scratch_->keywords) {
    if (term.stem_tag != kInvalidTermId ||
        term.raw_tag != kInvalidTermId) {
      ++resolvable;
    }
  }
  for (TermId tag : scratch_->hashtags) {
    if (tag != kInvalidTermId) ++resolvable;
  }
  for (TermId url : scratch_->urls) {
    if (url != kInvalidTermId) ++resolvable;
  }
  double i_upper = 0.0;
  double i_upper_all = 0.0;
  if (num_indicant_terms_ > 0) {
    i_upper = static_cast<double>(resolvable) /
              static_cast<double>(num_indicant_terms_);
    i_upper_all = 1.0;
  }
  const double quality_upper =
      weights.quality_weight > 0.0 ? weights.quality_weight : 0.0;
  static_bound_ = weights.alpha_text * s_upper +
                  weights.beta_indicant * i_upper + quality_upper;
  archived_bound_ = weights.alpha_text * s_upper_all +
                    weights.beta_indicant * i_upper_all + quality_upper +
                    (gamma_ >= 0.0 ? gamma_ : 0.0);
}

double QueryPlan::Combine(size_t indicant_hits, Timestamp last_update,
                          const Bundle* quality_source) const {
  // s(q,B): saturating tf so giant bundles don't dominate by volume,
  // normalized to [0, ~1] by query length and a typical idf magnitude.
  double text = 0.0;
  if (num_keywords_ > 0) {
    double sum = 0.0;
    for (size_t i = 0; i < num_keywords_; ++i) {
      const uint32_t tf = scratch_->tf[i];
      if (tf == 0) continue;
      sum += scratch_->keywords[i].idf * (static_cast<double>(tf) / (tf + 2.0));
    }
    if (max_idf_ > 0.0) {
      text = sum / (static_cast<double>(num_keywords_) * max_idf_);
    }
  }
  // i(q,B): the fraction of indicant terms present.
  const double indicant =
      num_indicant_terms_ == 0
          ? 0.0
          : static_cast<double>(indicant_hits) /
                static_cast<double>(num_indicant_terms_);
  double score = weights_.alpha_text * text +
                 weights_.beta_indicant * indicant +
                 gamma_ * BundleFreshness(last_update, now_,
                                          weights_.time_scale_secs);
  if (weights_.quality_weight > 0.0) {
    score += weights_.quality_weight * BundleQuality(*quality_source);
  }
  return score;
}

double QueryPlan::Score(const Bundle& bundle) const {
  std::vector<uint32_t>& tf = scratch_->tf;
  tf.clear();
  for (const PlanKeyword& term : scratch_->keywords) {
    tf.push_back(bundle.CountOfId(IndicantType::kKeyword, term.keyword));
  }
  size_t hits = 0;
  for (TermId tag : scratch_->hashtags) {
    if (bundle.CountOfId(IndicantType::kHashtag, tag) > 0) ++hits;
  }
  for (TermId url : scratch_->urls) {
    if (bundle.CountOfId(IndicantType::kUrl, url) > 0) ++hits;
  }
  // A bare word may name a hashtag, by its stem or its raw form.
  for (const PlanKeyword& term : scratch_->keywords) {
    if (bundle.CountOfId(IndicantType::kHashtag, term.stem_tag) > 0 ||
        bundle.CountOfId(IndicantType::kHashtag, term.raw_tag) > 0) {
      ++hits;
    }
  }
  return Combine(hits, bundle.last_update(), &bundle);
}

Status QueryPlan::ScoreRecord(std::string_view record, double* score) const {
  // The query path's only decode.
  std::unique_ptr<Bundle> decoded;
  if (weights_.quality_weight > 0.0) {
    auto decoded_or = DecodeBundle(record);
    if (!decoded_or.ok()) return decoded_or.status();
    decoded = std::move(*decoded_or);
  }
  const ParsedQuery& query = *parsed_;
  std::vector<uint32_t>& tf = scratch_->tf;
  tf.assign(num_keywords_, 0);
  // Hit flags in Score's order: hashtags, URLs, words naming hashtags.
  std::vector<uint8_t>& hits = scratch_->hits;
  hits.assign(num_indicant_terms_, 0);
  uint8_t* const tag_hit = hits.data();
  uint8_t* const url_hit = tag_hit + query.hashtags.size();
  uint8_t* const word_tag_hit = url_hit + query.urls.size();

  BundleRecordHeader header;
  MICROPROV_RETURN_IF_ERROR(ReadBundleRecordHeader(&record, &header));
  BundleEntryView entry;
  std::string_view piece;
  Timestamp last_update = 0;  // Bundle::AddMessage's rule
  for (uint32_t m = 0; m < header.count; ++m) {
    MICROPROV_RETURN_IF_ERROR(ReadBundleRecordEntry(&record, &entry));
    last_update = std::max(last_update, entry.msg.date);
    // Bundle::AddMessage's summary rule: the first
    // kSummaryKeywordsPerMessage keywords, every hashtag and URL.
    for (size_t kw = 0; kw < Bundle::kSummaryKeywordsPerMessage &&
                        entry.msg.keywords.Pop(&piece);
         ++kw) {
      for (size_t i = 0; i < num_keywords_; ++i) {
        tf[i] += query.keywords[i] == piece;
      }
    }
    while (entry.msg.hashtags.Pop(&piece)) {
      for (size_t i = 0; i < query.hashtags.size(); ++i) {
        tag_hit[i] |= query.hashtags[i] == piece;
      }
      for (size_t i = 0; i < num_keywords_; ++i) {
        word_tag_hit[i] |= query.keywords[i] == piece ||
                           (i < query.raw_words.size() &&
                            query.raw_words[i] == piece);
      }
    }
    while (entry.msg.urls.Pop(&piece)) {
      for (size_t i = 0; i < query.urls.size(); ++i) {
        url_hit[i] |= query.urls[i] == piece;
      }
    }
  }
  const size_t hit_count =
      static_cast<size_t>(std::count(hits.begin(), hits.end(), 1));
  *score = Combine(hit_count, last_update, decoded.get());
  return Status::OK();
}

}  // namespace microprov
