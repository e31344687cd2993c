#ifndef TERIDS_ER_BOUNDS_H_
#define TERIDS_ER_BOUNDS_H_

#include "tuple/imputed_tuple.h"

namespace terids {

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
