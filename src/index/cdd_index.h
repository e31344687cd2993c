#ifndef TERIDS_INDEX_CDD_INDEX_H_
#define TERIDS_INDEX_CDD_INDEX_H_

#include <vector>

#include "repo/repository.h"
#include "rules/rule.h"
#include "tuple/record.h"

namespace terids {

/// The CDD-index I_j (Section 5.1): for each dependent attribute A_j, the
/// ids of the rules X -> A_j in ascending order, built once.
///
/// A rule applies to a probe when none of its determinants is missing and
/// every constant constraint equals the probe's value. Values are interned
/// by token set, so the constant test is one ValueId compare against the
/// probe's interned value (CddRule::ConstantsMatch). Interval constraints
/// are not filtered here: they constrain the (r, sample) pair, which the
/// engine's determinant join evaluates. An absorb widens only dependent
/// intervals, so the lists never change.
class CddIndex {
 public:
  CddIndex(const Repository* repo, const std::vector<CddRule>* rules);

  /// Ascending ids of the rules with dependent attribute `dependent` that
  /// apply to `r`.
  std::vector<int> SelectRules(const Record& r, int dependent) const;

 private:
  const Repository* repo_;
  const std::vector<CddRule>* rules_;
  /// by_dependent_[j]: ascending ids of the rules with dependent A_j.
  std::vector<std::vector<int>> by_dependent_;
};

}  // namespace terids

#endif  // TERIDS_INDEX_CDD_INDEX_H_
