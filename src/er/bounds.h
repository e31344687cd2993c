#ifndef TERIDS_ER_BOUNDS_H_
#define TERIDS_ER_BOUNDS_H_

#include <algorithm>

namespace terids {

/// Lemma 4.1 for one attribute, from the two token-set size intervals
/// [a_min, a_max] and [b_min, b_max]; the batched cascade
/// (EvaluateCandidates) sums it over the attributes.
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

/// Lemma 4.3: the Paley-Zygmund upper bound on Pr{sim(a,b) > gamma} from
/// the two tuples' main-pivot sums (E, lb, ub of X for `a` and of Y for
/// `b`), dg = d - gamma and the joint mass total_prob(a) * total_prob(b).
/// The expectations are over the normalized instance distributions, and
/// scaling by the masses keeps the result an upper bound of the raw
/// (sub-stochastic) TER-iDS probability when instance sets were truncated.
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

}  // namespace terids

#endif  // TERIDS_ER_BOUNDS_H_
