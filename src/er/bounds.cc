#include "er/bounds.h"

#include <algorithm>

#include "util/status.h"

namespace terids {

namespace {

/// Lemma 4.1 for a single attribute.
double AttrSizeUb(const Interval& sa, const Interval& sb) {
  // |T^-| and |T^+| per side.
  const double a_min = sa.lo;
  const double a_max = sa.hi;
  const double b_min = sb.lo;
  const double b_max = sb.hi;
  if (a_min > b_max) {
    return a_min > 0 ? b_max / a_min : 1.0;
  }
  if (a_max < b_min) {
    return b_min > 0 ? a_max / b_min : 1.0;
  }
  return 1.0;
}

}  // namespace

double UbSimTokenSize(const ImputedTuple& a, const ImputedTuple& b) {
  TERIDS_CHECK(a.num_attributes() == b.num_attributes());
  double ub = 0.0;
  for (int k = 0; k < a.num_attributes(); ++k) {
    ub += AttrSizeUb(a.token_size_interval(k), b.token_size_interval(k));
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
  const double e_x = a.main_pivot_expected_sum();
  const double e_y = b.main_pivot_expected_sum();
  const double lb_x = a.main_pivot_lo_sum();
  const double ub_x = a.main_pivot_hi_sum();
  const double lb_y = b.main_pivot_lo_sum();
  const double ub_y = b.main_pivot_hi_sum();
  const double dg = static_cast<double>(d) - gamma;
  const double mass = a.total_prob() * b.total_prob();

  double bound = 1.0;
  if (lb_x >= ub_y) {
    // X - Y >= 0 always.
    const double ez = e_x - e_y;
    const double ubz = ub_x - lb_y;
    if (ez > 0 && dg >= 0 && dg <= ez && ubz > 0) {
      const double theta = dg / ez;
      bound = 1.0 - (1.0 - theta) * (1.0 - theta) * (ez / ubz);
    }
  } else if (lb_y >= ub_x) {
    const double ez = e_y - e_x;
    const double ubz = ub_y - lb_x;
    if (ez > 0 && dg >= 0 && dg <= ez && ubz > 0) {
      const double theta = dg / ez;
      bound = 1.0 - (1.0 - theta) * (1.0 - theta) * (ez / ubz);
    }
  }
  bound = std::clamp(bound, 0.0, 1.0);
  return bound * mass;
}

}  // namespace terids
