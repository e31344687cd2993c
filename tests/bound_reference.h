#ifndef TERIDS_TESTS_BOUND_REFERENCE_H_
#define TERIDS_TESTS_BOUND_REFERENCE_H_

// The per-pair reference for Theorems 4.1-4.3: the Lemma 4.1-4.3
// aggregates rebuilt from per-instance token sets and repository pivots,
// the three bounds computed per pair from them, and the paper's cascade
// in its order. The engine decides Theorems 4.1-4.3 only in the batched
// cascade over PairRows (EvaluateCandidates); er_test, pair_cascade_test
// and grid_maintenance_test hold its rows and verdicts to this reference.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "er/probability.h"
#include "er/pruning.h"
#include "er/similarity.h"
#include "er/topic.h"
#include "repo/repository.h"
#include "text/similarity_kernels.h"
#include "tuple/imputed_tuple.h"
#include "tuple/pair_row.h"
#include "util/bits.h"
#include "util/interval.h"

namespace terids {
namespace testing_util {

/// The Lemma 4.1-4.3 aggregates of one tuple.
struct ReferenceAggregates {
  std::vector<Interval> sizes;               // [attr]
  std::vector<std::vector<Interval>> dists;  // [attr][pivot]
  std::vector<double> expected;              // [attr], main pivot
  double total_prob = 0.0;
};

inline ReferenceAggregates ReferenceOf(const ImputedTuple& t,
                                       const Repository& repo) {
  const int d = t.num_attributes();
  const double norm = t.total_prob() > 0 ? t.total_prob() : 1.0;
  ReferenceAggregates ref;
  ref.sizes.assign(d, Interval::Empty());
  ref.dists.assign(d, {});
  ref.expected.assign(d, 0.0);
  ref.total_prob = t.total_prob();
  for (int k = 0; k < d; ++k) {
    ref.dists[k].assign(repo.num_pivots(k), Interval::Empty());
    for (int m = 0; m < t.num_instances(); ++m) {
      const TokenSet& tokens = t.instance_tokens(m, k);
      ref.sizes[k].Cover(static_cast<double>(tokens.size()));
      for (int p = 0; p < repo.num_pivots(k); ++p) {
        ref.dists[k][p].Cover(JaccardDistance(tokens, repo.pivot_tokens(k, p)));
      }
      if (t.IsAttrImputed(k)) {
        const double weight = t.instance_prob(m) / norm;
        ref.expected[k] +=
            weight * JaccardDistance(tokens, repo.pivot_tokens(k, 0));
      }
    }
    if (!t.IsAttrImputed(k)) {
      ref.expected[k] = ref.dists[k][0].lo;
    }
  }
  return ref;
}

/// Lemma 4.1, summed over the attributes.
inline double ReferenceSizeUb(const ReferenceAggregates& a,
                              const ReferenceAggregates& b) {
  double ub = 0.0;
  for (size_t k = 0; k < a.sizes.size(); ++k) {
    const Interval& sa = a.sizes[k];
    const Interval& sb = b.sizes[k];
    double attr_ub = 1.0;
    if (sa.lo > sb.hi) {
      attr_ub = sa.lo > 0 ? sb.hi / sa.lo : 1.0;
    } else if (sa.hi < sb.lo) {
      attr_ub = sb.lo > 0 ? sa.hi / sb.lo : 1.0;
    }
    ub += attr_ub;
  }
  return ub;
}

/// Lemma 4.2: d minus, per attribute, the largest pivot lower bound.
inline double ReferencePivotUb(const ReferenceAggregates& a,
                               const ReferenceAggregates& b) {
  double sum_min_dist = 0.0;
  for (size_t k = 0; k < a.dists.size(); ++k) {
    double best = 0.0;
    const size_t np = std::min(a.dists[k].size(), b.dists[k].size());
    for (size_t p = 0; p < np; ++p) {
      best = std::max(best, a.dists[k][p].MinAbsDiff(b.dists[k][p]));
    }
    sum_min_dist += best;
  }
  return static_cast<double>(a.dists.size()) - sum_min_dist;
}

/// The six main-pivot sums of Lemma 4.3, accumulated in k = 0..d-1 order.
struct ReferenceSums {
  double expected = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

inline ReferenceSums SumsOf(const ReferenceAggregates& a) {
  ReferenceSums sums;
  for (size_t k = 0; k < a.expected.size(); ++k) {
    sums.expected += a.expected[k];
    sums.lo += a.dists[k][0].lo;
    sums.hi += a.dists[k][0].hi;
  }
  return sums;
}

/// Lemma 4.3 with the main-pivot sums accumulated per pair.
inline double ReferencePaleyZygmund(const ReferenceAggregates& a,
                                    const ReferenceAggregates& b,
                                    double gamma) {
  const ReferenceSums x = SumsOf(a);
  const ReferenceSums y = SumsOf(b);
  const double dg = static_cast<double>(a.expected.size()) - gamma;
  double bound = 1.0;
  double ez = 0.0;
  double ubz = 0.0;
  if (x.lo >= y.hi) {
    ez = x.expected - y.expected;
    ubz = x.hi - y.lo;
  } else if (y.lo >= x.hi) {
    ez = y.expected - x.expected;
    ubz = y.hi - x.lo;
  }
  if (ez > 0 && dg >= 0 && dg <= ez && ubz > 0) {
    const double theta = dg / ez;
    bound = 1.0 - (1.0 - theta) * (1.0 - theta) * (ez / ubz);
  }
  return std::clamp(bound, 0.0, 1.0) * (a.total_prob * b.total_prob);
}

/// The PairRow `t` must carry, word for word, with a 0 topic word: built
/// from ReferenceOf and the instance token sets.
inline std::vector<double> ReferenceRow(const ImputedTuple& t,
                                        const Repository& repo) {
  using L = PairRowLayout;
  const int d = t.num_attributes();
  std::vector<int> pivot_counts(d);
  for (int k = 0; k < d; ++k) {
    pivot_counts[k] = repo.num_pivots(k);
  }
  const PairRowLayout layout(pivot_counts);
  const ReferenceAggregates ref = ReferenceOf(t, repo);
  const ReferenceSums sums = SumsOf(ref);
  std::vector<double> row(layout.stride(), 0.0);
  row[L::kInstances] = t.num_instances();
  row[L::kTotalProb] = ref.total_prob;
  row[L::kSumExpected] = sums.expected;
  row[L::kSumLo] = sums.lo;
  row[L::kSumHi] = sums.hi;
  for (int k = 0; k < d; ++k) {
    double* attr = row.data() + layout.attr_offset(k);
    attr[L::kSizeLo] = ref.sizes[k].lo;
    attr[L::kSizeHi] = ref.sizes[k].hi;
    for (int p = 0; p < pivot_counts[k]; ++p) {
      attr[L::kPivots + 2 * p] = ref.dists[k][p].lo;
      attr[L::kPivots + 2 * p + 1] = ref.dists[k][p].hi;
    }
  }
  if (t.num_instances() == 1) {
    int saturated = 0;
    for (int k = 0; k < d; ++k) {
      const TokenSet& tokens = t.instance_tokens(0, k);
      uint64_t sig = 0;
      for (Token token : tokens) {
        sig |= uint64_t{1} << SignatureBit(token);
      }
      layout.SetToken(row.data(), k, sig,
                      static_cast<uint32_t>(tokens.size()));
      saturated += PopCount64(sig) > kSigSaturatedBits ? 1 : 0;
    }
    row[L::kSaturated] = saturated;
  }
  return row;
}

/// Theorems 4.1-4.3 in the paper's order: the stage that prunes (a, b),
/// or nullopt when the pair passes all three.
inline std::optional<PairOutcome> ReferenceBoundsVerdict(
    const TopicQuery::TupleTopic& ta, const ReferenceAggregates& ra,
    const TopicQuery::TupleTopic& tb, const ReferenceAggregates& rb,
    double gamma, double alpha) {
  if (!ta.any && !tb.any) {
    return PairOutcome::kTopicPruned;
  }
  if (std::min(ReferenceSizeUb(ra, rb), ReferencePivotUb(ra, rb)) <= gamma) {
    return PairOutcome::kSimUbPruned;
  }
  if (ReferencePaleyZygmund(ra, rb, gamma) <= alpha) {
    return PairOutcome::kProbUbPruned;
  }
  return std::nullopt;
}

/// The per-pair cascade: the reference bounds, then RefineProbability
/// with Theorem 4.4.
inline PairEvaluation ReferenceCascade(const ImputedTuple& a,
                                       const TopicQuery::TupleTopic& ta,
                                       const ReferenceAggregates& ra,
                                       const ImputedTuple& b,
                                       const TopicQuery::TupleTopic& tb,
                                       const ReferenceAggregates& rb,
                                       double gamma, double alpha) {
  PairEvaluation eval;
  if (const std::optional<PairOutcome> pruned =
          ReferenceBoundsVerdict(ta, ra, tb, rb, gamma, alpha)) {
    eval.outcome = *pruned;
    return eval;
  }
  SigFilterCounters sig;
  const RefineResult refine =
      RefineProbability(a, ta, b, tb, gamma, alpha, &sig);
  eval.sig_probes = sig.probes;
  eval.sig_saturated = sig.saturated;
  eval.sig_rejects = sig.rejects;
  if (refine.early_pruned) {
    eval.outcome = PairOutcome::kInstancePruned;
  } else if (refine.probability > alpha) {
    eval.outcome = PairOutcome::kMatched;
    eval.probability = refine.probability;
  } else {
    eval.outcome = PairOutcome::kRefuted;
  }
  return eval;
}

/// `t`'s own row with its topic word set, as its window's slab stores it.
inline std::vector<double> WindowRowOf(const ImputedTuple& t, bool topical) {
  std::vector<double> row(t.row(), t.row() + t.row_layout().stride());
  row[PairRowLayout::kTopical] = topical ? 1.0 : 0.0;
  return row;
}

/// The engine's path for one pair: EvaluateCandidates over b's stored row,
/// then RefinePair if the kernel passed it.
inline PairEvaluation KernelThenRefine(const ImputedTuple& a,
                                       const TopicQuery::TupleTopic& ta,
                                       const ImputedTuple& b,
                                       const TopicQuery::TupleTopic& tb,
                                       double gamma, double alpha) {
  const std::vector<double> row = WindowRowOf(b, tb.any);
  const uint32_t slot = 0;
  std::vector<PairEvaluation> evals;
  std::vector<uint32_t> passed;
  EvaluateCandidates(a.row_layout(), a.row(), ta.any, row.data(), &slot, 1,
                     gamma, alpha, &evals, &passed);
  return passed.empty() ? evals[0] : RefinePair(a, ta, b, tb, gamma, alpha);
}

}  // namespace testing_util
}  // namespace terids

#endif  // TERIDS_TESTS_BOUND_REFERENCE_H_
