#ifndef TERIDS_IMPUTATION_IMPUTER_H_
#define TERIDS_IMPUTATION_IMPUTER_H_

#include <vector>

#include "eval/cost_breakdown.h"
#include "tuple/imputed_tuple.h"
#include "tuple/record.h"

namespace terids {

/// Interface of all imputation strategies (Section 3 and the baselines of
/// Section 6.1). An imputer turns the missing attributes of an incomplete
/// record into candidate value distributions; the caller materializes the
/// probabilistic tuple via ImputedTuple::FromImputation.
class Imputer {
 public:
  virtual ~Imputer() = default;

  /// Produces one candidate distribution per missing attribute of `r` that
  /// this strategy can fill (attributes it cannot fill are simply absent
  /// from the result). `cost`, if non-null, receives the rule-selection and
  /// imputation time of this call.
  virtual std::vector<ImputedTuple::ImputedAttr> ImputeRecord(
      const Record& r, CostBreakdown* cost) = 0;

  /// Stream lifecycle hooks: imputers that learn from the stream itself
  /// (the constraint-based baseline) observe arrivals and evictions here.
  virtual void OnArrival(const Record& r) { (void)r; }
  virtual void OnEvict(const Record& r) { (void)r; }
};

}  // namespace terids

#endif  // TERIDS_IMPUTATION_IMPUTER_H_
