#include "query/bundle_ranker.h"

#include <algorithm>

#include "text/stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace microprov {

ParsedQuery ParseQuery(const std::string& query) {
  ParsedQuery out;
  for (Token& tok : Tokenize(query)) {
    switch (tok.type) {
      case TokenType::kHashtag:
        out.hashtags.push_back(std::move(tok.value));
        break;
      case TokenType::kUrl:
        out.urls.push_back(std::move(tok.value));
        break;
      case TokenType::kWord:
        if (!IsStopword(tok.value)) {
          out.keywords.push_back(PorterStem(tok.value));
          out.raw_words.push_back(std::move(tok.value));
        }
        break;
      case TokenType::kMention:
        break;
    }
  }
  return out;
}

double BundleFreshness(Timestamp last_update, Timestamp now,
                       double scale_secs) {
  const double age =
      static_cast<double>(std::max<Timestamp>(0, now - last_update));
  return 1.0 / (age / scale_secs + 1.0);
}

}  // namespace microprov
