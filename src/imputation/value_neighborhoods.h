#ifndef TERIDS_IMPUTATION_VALUE_NEIGHBORHOODS_H_
#define TERIDS_IMPUTATION_VALUE_NEIGHBORHOODS_H_

#include <utility>
#include <vector>

#include "imputation/candidate_counter.h"
#include "repo/repository.h"
#include "rules/rule.h"

namespace terids {

/// Distance-sorted neighbor lists of attribute-domain values, the
/// value-level companion of the DR-index: for a domain value v of attribute
/// x, Neighborhood(x, v) lists every value within `radius[x]` of v, sorted
/// by Jaccard distance.
///
/// Candidate sets cand(s[A_j]) (Section 3) are binary-searched slices of
/// these lists, so an index-assisted engine computes each domain-to-domain
/// distance at most once per engine lifetime, while the unindexed baselines
/// rescan the domain per (rule, sample, arrival). Lists are built lazily
/// (only values that actually appear as satisfying samples pay the cost)
/// using the repository's sorted-coordinate filter.
class ValueNeighborhoods {
 public:
  /// `radius[x]` caps the usable dependent-interval hi on attribute x; pass
  /// MaxRadiusPerAttr(rules, d) for a rule set.
  ValueNeighborhoods(const Repository* repo, std::vector<double> radius);

  static std::vector<double> MaxRadiusPerAttr(const std::vector<CddRule>& rules,
                                              int num_attributes);

  const std::vector<std::pair<double, ValueId>>& Neighborhood(int attr,
                                                              ValueId vid);

  /// Adds one vote to `counts` for every value in the candidate slice within
  /// `dep` around sample value `svid` (Equation 3/4 semantics). `counts`
  /// must already fit dom(attr).
  void AccumulateRange(int attr, ValueId svid, const Interval& dep,
                       CandidateCounter* counts);

  /// Adopts new per-attribute radii (rules were widened or added) and drops
  /// the cached lists of every attribute whose radius changed.
  void SetRadius(const std::vector<double>& radius);

  /// Drops the cached lists of attribute `attr` (its domain grew).
  void Invalidate(int attr);

 private:
  const Repository* repo_;
  std::vector<double> radius_;
  /// cache_[attr][vid]: the distance-sorted list around vid. A built list
  /// always holds vid itself (distance 0), so an empty one is "not built".
  std::vector<std::vector<std::vector<std::pair<double, ValueId>>>> cache_;
};

}  // namespace terids

#endif  // TERIDS_IMPUTATION_VALUE_NEIGHBORHOODS_H_
