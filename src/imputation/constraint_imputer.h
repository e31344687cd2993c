#ifndef TERIDS_IMPUTATION_CONSTRAINT_IMPUTER_H_
#define TERIDS_IMPUTATION_CONSTRAINT_IMPUTER_H_

#include <deque>
#include <unordered_map>

#include "imputation/imputer.h"
#include "repo/repository.h"

namespace terids {

/// The constraint-based imputation baseline (`con+ER`, modeled on [43]).
///
/// It never touches the data repository: each incomplete tuple is imputed
/// from the most similar *complete* tuple recently seen on the same stream
/// (similarity over the non-missing attributes). This reproduces the
/// reported behavior of the baseline: fast (no repository access, constant
/// in eta and m) but the least accurate, because it ignores the semantic
/// association between attributes.
class ConstraintImputer : public Imputer {
 public:
  /// `repo` is only used to register stream-sourced values so that the
  /// downstream ImputedTuple machinery (domains, pivot tables) applies
  /// uniformly. `history_cap` bounds the per-stream complete-tuple memory
  /// (the engine sets it to the window size w).
  ConstraintImputer(Repository* repo, int history_cap);

  std::vector<ImputedTuple::ImputedAttr> ImputeRecord(
      const Record& r, CostBreakdown* cost) override;

  void OnArrival(const Record& r) override;
  void OnEvict(const Record& r) override;

 private:
  Repository* repo_;
  int history_cap_;
  // Per stream: recent complete records, oldest first.
  std::unordered_map<int, std::deque<Record>> history_;
};

}  // namespace terids

#endif  // TERIDS_IMPUTATION_CONSTRAINT_IMPUTER_H_
