#include "er/bounds.h"

#include <algorithm>

#include "util/status.h"

namespace terids {

double UbSimTokenSize(const ImputedTuple& a, const ImputedTuple& b) {
  TERIDS_CHECK(a.num_attributes() == b.num_attributes());
  double ub = 0.0;
  for (int k = 0; k < a.num_attributes(); ++k) {
    const Interval sa = a.token_size_interval(k);
    const Interval sb = b.token_size_interval(k);
    ub += AttrSizeSimUb(sa.lo, sa.hi, sb.lo, sb.hi);
  }
  return ub;
}

double UbSimPivot(const ImputedTuple& a, const ImputedTuple& b) {
  TERIDS_CHECK(a.num_attributes() == b.num_attributes());
  const int d = a.num_attributes();
  double sum_min_dist = 0.0;
  for (int k = 0; k < d; ++k) {
    // Every pivot gives a valid lower bound on dist(a[A_k], b[A_k]) via the
    // triangle inequality; the tightest (largest) one wins.
    double best = 0.0;
    const int np = std::min(a.num_pivot_intervals(k), b.num_pivot_intervals(k));
    for (int p = 0; p < np; ++p) {
      const double lb = a.pivot_dist_interval(k, p).MinAbsDiff(
          b.pivot_dist_interval(k, p));
      best = std::max(best, lb);
    }
    sum_min_dist += best;
  }
  return static_cast<double>(d) - sum_min_dist;
}

double UbSim(const ImputedTuple& a, const ImputedTuple& b) {
  return std::min(UbSimTokenSize(a, b), UbSimPivot(a, b));
}

double UbProbPaleyZygmund(const ImputedTuple& a, const ImputedTuple& b,
                          double gamma) {
  const int d = a.num_attributes();
  TERIDS_CHECK(b.num_attributes() == d);
  // Per-tuple sums from the bound block (same k = 0..d-1 accumulation).
  return PaleyZygmundProbUb(
      a.main_pivot_expected_sum(), a.main_pivot_lo_sum(),
      a.main_pivot_hi_sum(), b.main_pivot_expected_sum(),
      b.main_pivot_lo_sum(), b.main_pivot_hi_sum(),
      static_cast<double>(d) - gamma, a.total_prob() * b.total_prob());
}

}  // namespace terids
