#ifndef TERIDS_ER_BOUNDS_H_
#define TERIDS_ER_BOUNDS_H_

#include <algorithm>

#include "tuple/imputed_tuple.h"

namespace terids {

/// Lemma 4.1 for one attribute, from the two token-set size intervals
/// [a_min, a_max] and [b_min, b_max]. Shared by UbSimTokenSize and the
/// batched cascade (EvaluateCandidates) so both round identically.
/// Selects instead of branching (which side is larger is data-dependent);
/// the ratio is computed unconditionally and dropped when unused.
inline double AttrSizeSimUb(double a_min, double a_max, double b_min,
                            double b_max) {
  // a above b: |T_b^+| / |T_a^-|; b above a: |T_a^+| / |T_b^-|; else 1.
  const bool a_above = a_min > b_max;
  const bool b_above = a_max < b_min;
  const double num = a_above ? b_max : a_max;
  const double den = a_above ? a_min : b_min;
  const double ratio = num / den;
  return (a_above || b_above) && den > 0 ? ratio : 1.0;
}

/// Lemma 4.3's Paley-Zygmund bound from the two tuples' main-pivot sums
/// (E, lb, ub of X for `a` and of Y for `b`), dg = d - gamma and the joint
/// mass total_prob(a) * total_prob(b). Shared by UbProbPaleyZygmund and
/// the batched cascade.
inline double PaleyZygmundProbUb(double e_x, double lb_x, double ub_x,
                                 double e_y, double lb_y, double ub_y,
                                 double dg, double mass) {
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

/// Lemma 4.1: per-attribute similarity upper bound from token-set size
/// intervals, summed over attributes. Range [0, d].
double UbSimTokenSize(const ImputedTuple& a, const ImputedTuple& b);

/// Lemma 4.2: similarity upper bound via pivot tuples. For each attribute,
/// min_dist is the largest lower bound |X_k - Y_k| obtainable from any of
/// the shared pivots (main + auxiliary); ub_sim = d - sum min_dist.
double UbSimPivot(const ImputedTuple& a, const ImputedTuple& b);

/// The combined similarity upper bound used by Theorem 4.2: the minimum of
/// the token-size and pivot bounds.
double UbSim(const ImputedTuple& a, const ImputedTuple& b);

/// Lemma 4.3: Paley-Zygmund-based upper bound on Pr{sim(a,b) > gamma}.
/// Uses the main-pivot distance expectation and bound sums each tuple
/// aggregates once at construction, so a pair costs O(1); expectations are
/// taken over the normalized instance distributions, and the returned bound
/// is scaled by the tuples' total probability masses so it stays an upper
/// bound of the raw (sub-stochastic) TER-iDS probability even when instance
/// sets were truncated.
double UbProbPaleyZygmund(const ImputedTuple& a, const ImputedTuple& b,
                          double gamma);

}  // namespace terids

#endif  // TERIDS_ER_BOUNDS_H_
