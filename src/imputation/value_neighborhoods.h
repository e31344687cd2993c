#ifndef TERIDS_IMPUTATION_VALUE_NEIGHBORHOODS_H_
#define TERIDS_IMPUTATION_VALUE_NEIGHBORHOODS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "imputation/candidate_counter.h"
#include "repo/repository.h"
#include "util/interval.h"

namespace terids {

/// Distance-sorted neighbor lists of attribute-domain values: for a domain
/// value v of attribute x, Neighborhood(x, v) lists every value of dom(x)
/// at Jaccard distance strictly below 1 from v, sorted by distance.
///
/// Candidate sets cand(s[A_j]) (Section 3) are binary-searched slices of
/// these lists, so an index-assisted engine computes each domain-to-domain
/// distance at most once per engine lifetime, while the unindexed baselines
/// rescan the domain per (rule, sample, arrival). The values a list leaves
/// out are exactly the ones at distance 1: JaccardDistance is 1 iff the two
/// token sets share no token and are not both empty. A dependent interval
/// that contains 1 therefore votes for the whole domain minus a list prefix,
/// which AccumulateRange counts without enumerating the domain.
///
/// Lists are found through per-attribute token postings (a sorted flat
/// (Token, ValueId) array plus the token-less values), built on the
/// attribute's first use, and each list is built on its centre's first use.
/// Both notice domain growth themselves: an attribute whose domain size
/// differs from the size its postings were built at is rebuilt.
class ValueNeighborhoods {
 public:
  explicit ValueNeighborhoods(const Repository* repo);

  const std::vector<std::pair<double, ValueId>>& Neighborhood(int attr,
                                                              ValueId vid);

  /// Replaces `*out` with the values of dom(attr) at Jaccard distance below
  /// 1 from `probe`, in no particular order: the values sharing a token
  /// with it, or the token-less values when `probe` has no token.
  void TokenSharing(int attr, const TokenSet& probe,
                    std::vector<ValueId>* out);

  /// Adds one vote to `counts` for every value of dom(attr) whose distance
  /// to sample value `svid` lies in `dep` (Equation 3/4 semantics).
  /// `counts` must be fitted to exactly dom(attr).
  void AccumulateRange(int attr, ValueId svid, const Interval& dep,
                       CandidateCounter* counts);

 private:
  struct AttrLists {
    /// Domain size the postings and lists below were built for.
    size_t built_size = 0;
    /// (token, value) for every token of every value, sorted.
    std::vector<std::pair<Token, ValueId>> postings;
    /// Values with an empty token set, ascending.
    std::vector<ValueId> tokenless;
    /// lists[vid]: the distance-sorted list around vid. A built list always
    /// holds vid itself (distance 0), so an empty one is "not built".
    std::vector<std::vector<std::pair<double, ValueId>>> lists;
  };

  /// Returns attr's lists, rebuilt if dom(attr) grew since they were built.
  AttrLists& Fresh(int attr);

  const Repository* repo_;
  std::vector<AttrLists> attrs_;
  /// seen_[vid] == seen_epoch_ marks a value already listed by the current
  /// TokenSharing walk (0 is never current).
  std::vector<uint32_t> seen_;
  uint32_t seen_epoch_ = 0;
  /// The centre's token-sharing values during a list build.
  std::vector<ValueId> sharing_;
};

}  // namespace terids

#endif  // TERIDS_IMPUTATION_VALUE_NEIGHBORHOODS_H_
