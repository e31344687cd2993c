#ifndef TERIDS_ER_PROBABILITY_H_
#define TERIDS_ER_PROBABILITY_H_

#include <vector>

#include "er/similarity.h"
#include "er/topic.h"
#include "tuple/imputed_tuple.h"

namespace terids {

/// Result of the exact TER-iDS probability refinement.
struct RefineResult {
  /// The accumulated probability. Exact when `early_pruned` and
  /// `early_accepted` are both false; otherwise a certified partial value.
  double probability = 0.0;
  /// True iff Theorem 4.4 terminated the enumeration early because even an
  /// optimistic completion could not exceed alpha.
  bool early_pruned = false;
  /// True iff enumeration stopped because the accumulated probability
  /// already exceeds alpha (the pair is certainly a match).
  bool early_accepted = false;
  /// Instance pairs actually evaluated.
  int pairs_evaluated = 0;
};

/// Computes Pr_TER-iDS(a, b) of Equation (2) by enumerating instance pairs,
/// with the instance-pair-level early termination of Theorem 4.4: after each
/// evaluated pair, if (accumulated) + (unprocessed mass) <= alpha the pair is
/// certified a non-match; if (accumulated) > alpha it is certified a match.
///
/// `a_topic` / `b_topic` carry the precomputed per-instance 𝜛 flags of the
/// two tuples under the query topic. Each instance pair's sim > gamma
/// verdict goes through the signature-bounded kernel
/// (InstanceSimilarityExceeds), which may skip merges but never changes a
/// verdict. `sig_counters`, when non-null, accumulates the kernel's
/// observability counters (SigFilterCounters) across the evaluated
/// instance pairs.
RefineResult RefineProbability(const ImputedTuple& a,
                               const TopicQuery::TupleTopic& a_topic,
                               const ImputedTuple& b,
                               const TopicQuery::TupleTopic& b_topic,
                               double gamma, double alpha,
                               SigFilterCounters* sig_counters = nullptr);

/// Exact (never early-terminated) form, for tests, ground-truth
/// computation, and the unpruned baselines. Deliberately the plain
/// reference: every instance pair is decided by `InstanceSimilarity(...) >
/// gamma` over full merges, with no signature bound, so comparing TER-iDS
/// against an unpruned baseline also checks the signature kernel against
/// plain merges end to end.
double ExactProbability(const ImputedTuple& a,
                        const TopicQuery::TupleTopic& a_topic,
                        const ImputedTuple& b,
                        const TopicQuery::TupleTopic& b_topic, double gamma);

}  // namespace terids

#endif  // TERIDS_ER_PROBABILITY_H_
