#include "er/topic.h"

#include <algorithm>

namespace terids {

TopicQuery::TopicQuery(const TokenDict& dict,
                       const std::vector<std::string>& keywords) {
  unconstrained_ = keywords.empty();
  for (const std::string& kw : keywords) {
    Token t = dict.Find(kw);
    if (t != kInvalidToken) {
      keyword_tokens_.push_back(t);
    }
  }
  std::sort(keyword_tokens_.begin(), keyword_tokens_.end());
  keyword_tokens_.erase(
      std::unique(keyword_tokens_.begin(), keyword_tokens_.end()),
      keyword_tokens_.end());
}

bool TopicQuery::Matches(const TokenSet& tokens) const {
  if (unconstrained_) {
    return true;
  }
  for (Token t : keyword_tokens_) {
    if (tokens.Contains(t)) {
      return true;
    }
  }
  return false;
}

TopicQuery::TupleTopic TopicQuery::Classify(const ImputedTuple& tuple) const {
  TupleTopic result;
  if (unconstrained_) {
    result.instance_matches.assign(tuple.num_instances(), true);
    result.any = true;
    return result;
  }
  result.instance_matches.assign(tuple.num_instances(), false);
  for (int m = 0; m < tuple.num_instances(); ++m) {
    for (int k = 0; k < tuple.num_attributes(); ++k) {
      if (Matches(tuple.instance_tokens(m, k))) {
        result.instance_matches[m] = true;
        result.any = true;
        break;
      }
    }
  }
  return result;
}

}  // namespace terids
