#ifndef TERIDS_EVAL_COST_BREAKDOWN_H_
#define TERIDS_EVAL_COST_BREAKDOWN_H_

#include <string>

namespace terids {

/// Per-arrival cost accounting for the break-up analysis of Figure 6:
/// online CDD selection, online imputation, and online ER cost.
struct CostBreakdown {
  double cdd_select_seconds = 0.0;
  double impute_seconds = 0.0;
  double er_seconds = 0.0;
  /// Pair-refinement wall time: the batched Theorem 4.1-4.3 cascade over
  /// the scanned candidates plus the per-pair refinement of the pairs it
  /// passes (the exact probability of every pair on the unpruned
  /// baselines). Contained in `er_seconds`, so it is an overlay metric,
  /// not a fourth additive phase.
  double refine_seconds = 0.0;
  /// Candidate-generation wall time (the scan of the other streams'
  /// windows). Contained in `er_seconds`; overlay metric.
  double candidate_seconds = 0.0;
  /// Read by terbench; always 0 since async ingest was removed.
  double queue_wait_seconds = 0.0;
  /// Window/row maintenance wall time (window push, row insert/remove,
  /// eviction cascade). Not contained in `er_seconds`; overlay
  /// metric feeding the per-arrival kMaintain latency histogram.
  double maintain_seconds = 0.0;

  double total_seconds() const {
    return cdd_select_seconds + impute_seconds + er_seconds;
  }

  void Add(const CostBreakdown& other) {
    cdd_select_seconds += other.cdd_select_seconds;
    impute_seconds += other.impute_seconds;
    er_seconds += other.er_seconds;
    refine_seconds += other.refine_seconds;
    candidate_seconds += other.candidate_seconds;
    queue_wait_seconds += other.queue_wait_seconds;
    maintain_seconds += other.maintain_seconds;
  }

  void Reset() { *this = CostBreakdown(); }

  CostBreakdown& operator+=(const CostBreakdown& other) {
    Add(other);
    return *this;
  }

  /// Uniformly scaled copy; used by PerArrival and sweep normalisation.
  CostBreakdown Scaled(double factor) const;

  /// Average cost over `arrivals` processed tuples (Figure 6 reports
  /// ms/arrival). Zero or negative arrival counts yield a zero breakdown.
  CostBreakdown PerArrival(long long arrivals) const;

  /// Fraction of total time in each phase. All zeros when the total is zero
  /// so callers never divide by zero.
  struct Shares {
    double cdd_select = 0.0;
    double impute = 0.0;
    double er = 0.0;
  };
  Shares PhaseShares() const;

  /// Flat JSON object, e.g. {"cdd_select_seconds":0.1,...,"total_seconds":
  /// 0.3}; consumed by the bench harness's TERIDS_BENCH_JSON artifacts.
  std::string ToJson() const;
};

inline CostBreakdown operator+(CostBreakdown lhs, const CostBreakdown& rhs) {
  lhs += rhs;
  return lhs;
}

}  // namespace terids

#endif  // TERIDS_EVAL_COST_BREAKDOWN_H_
