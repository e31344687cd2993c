#ifndef TERIDS_ER_TOPIC_H_
#define TERIDS_ER_TOPIC_H_

#include <string>
#include <vector>

#include "text/token_dict.h"
#include "text/token_set.h"
#include "tuple/imputed_tuple.h"

namespace terids {

/// The query topic keyword set K and the Boolean topic predicate
/// 𝜛(r, K) of the problem statement (Section 2.3).
///
/// An empty keyword set means "no topic constraint" (the paper's K = domain
/// of all keywords); 𝜛 is then identically true and topic pruning is off.
class TopicQuery {
 public:
  /// Keywords are looked up against a frozen dictionary: words never seen
  /// by the dictionary can never match and are dropped.
  TopicQuery(const TokenDict& dict, const std::vector<std::string>& keywords);

  /// Constructs the unconstrained query.
  TopicQuery() = default;

  bool IsUnconstrained() const {
    return keyword_tokens_.empty() && unconstrained_;
  }

  /// 𝜛 for a plain token set: true iff it contains at least one keyword.
  bool Matches(const TokenSet& tokens) const;

  /// Topic classification of a whole imputed tuple.
  struct TupleTopic {
    /// 𝜛(r_{i,m}, K) per instance.
    std::vector<bool> instance_matches;
    /// True iff some instance matches (the tuple can contribute a topical
    /// pair); Theorem 4.1 prunes a pair only if `any` is false on BOTH
    /// sides.
    bool any = false;
  };
  TupleTopic Classify(const ImputedTuple& tuple) const;

 private:
  bool unconstrained_ = true;
  std::vector<Token> keyword_tokens_;  // sorted
};

}  // namespace terids

#endif  // TERIDS_ER_TOPIC_H_
