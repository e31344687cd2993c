#include "er/pruning.h"

#include <algorithm>

#include "er/bounds.h"
#include "er/probability.h"
#include "text/similarity_kernels.h"

namespace terids {

void EvaluateCandidates(const PairRowLayout& layout, const double* probe_row,
                        bool probe_topical, const double* rows,
                        const uint32_t* slots, size_t n, double gamma,
                        double alpha, std::vector<PairEvaluation>* evals,
                        std::vector<uint32_t>* passed) {
  using L = PairRowLayout;
  const int d = layout.dims();
  const size_t du = static_cast<size_t>(d);
  const size_t stride = layout.stride();
  evals->assign(n, PairEvaluation());
  passed->clear();

  // Probe terms, hoisted out of the candidate loop.
  const double* p = probe_row;
  const double p_total = p[L::kTotalProb];
  const double p_sum_e = p[L::kSumExpected];
  const double p_sum_lo = p[L::kSumLo];
  const double p_sum_hi = p[L::kSumHi];
  const double dims = static_cast<double>(d);
  const double dg = dims - gamma;
  // A single-instance pair that passes Theorems 4.1-4.3 is topical at
  // instance level (its one instance carries the tuple's topic bit), so
  // RefineProbability runs pass 1 on it; if that rejects, the pair's
  // probability stays 0 with no mass left, which Theorem 4.4 prunes
  // whenever alpha >= 0. Wider schemas skip pass 1 altogether.
  const bool sig_probe = p[L::kInstances] == 1.0 && d <= kSigPassMaxAttrs &&
                         alpha >= 0.0;
  // The probe's side of that signature bound.
  uint32_t p_len[kSigPassMaxAttrs];
  uint64_t p_sig[kSigPassMaxAttrs];
  if (sig_probe) {
    for (int k = 0; k < d; ++k) {
      p_len[k] = layout.token_len(p, k);
      p_sig[k] = layout.signature(p, k);
    }
  }
  const uint64_t p_saturated = static_cast<uint64_t>(p[L::kSaturated]);

  for (size_t i = 0; i < n; ++i) {
    const double* r = rows + static_cast<size_t>(slots[i]) * stride;
    PairEvaluation& eval = (*evals)[i];
    // Theorem 4.1: no instance of either tuple contains a query keyword.
    if (!probe_topical && r[L::kTopical] == 0.0) {
      eval.outcome = PairOutcome::kTopicPruned;
      continue;
    }
    // Theorem 4.2 prunes iff the minimum of the Lemma 4.1 and Lemma 4.2
    // bounds is <= gamma, i.e. iff either bound is; each sum accumulates in
    // attribute order. Lemma 4.2 first: per attribute, the largest
    // Interval::MinAbsDiff over the pivots. With the rows' finite or
    // [+inf, -inf] intervals that is the larger signed gap clamped at 0,
    // and `best` starting at 0 absorbs the clamp.
    double sum_min_dist = 0.0;
    for (int k = 0; k < d; ++k) {
      const size_t off = layout.attr_offset(k) + L::kPivots;
      const double* pa = p + off;
      const double* ra = r + off;
      double best = 0.0;
      for (int q = 0; q < 2 * layout.pivot_count(k); q += 2) {
        best = std::max(best, std::max(pa[q] - ra[q + 1], ra[q] - pa[q + 1]));
      }
      sum_min_dist += best;
    }
    if (dims - sum_min_dist <= gamma) {
      eval.outcome = PairOutcome::kSimUbPruned;
      continue;
    }
    // Lemma 4.1. Its terms are >= 0, so once the partial sum exceeds gamma
    // the full sum does too and the rest cannot prune.
    double size_ub = 0.0;
    for (int k = 0; k < d && size_ub <= gamma; ++k) {
      const double* pa = p + layout.attr_offset(k);
      const double* ra = r + layout.attr_offset(k);
      size_ub += AttrSizeSimUb(pa[L::kSizeLo], pa[L::kSizeHi], ra[L::kSizeLo],
                               ra[L::kSizeHi]);
    }
    if (size_ub <= gamma) {
      eval.outcome = PairOutcome::kSimUbPruned;
      continue;
    }
    // Theorem 4.3.
    if (PaleyZygmundProbUb(p_sum_e, p_sum_lo, p_sum_hi, r[L::kSumExpected],
                           r[L::kSumLo], r[L::kSumHi], dg,
                           p_total * r[L::kTotalProb]) <= alpha) {
      eval.outcome = PairOutcome::kProbUbPruned;
      continue;
    }
    if (sig_probe && r[L::kInstances] == 1.0) {
      // Pass 1 of InstanceSimilarityExceeds: the per-attribute bounds
      // summed in attribute order, with identical double rounding.
      double total_ub = 0.0;
      for (int k = 0; k < d; ++k) {
        total_ub += SigJaccardUpperBound(p_len[k], p_sig[k],
                                         layout.token_len(r, k),
                                         layout.signature(r, k));
      }
      if (total_ub <= gamma) {
        eval.outcome = PairOutcome::kInstancePruned;
        eval.sig_probes = 2 * du;
        eval.sig_saturated =
            p_saturated + static_cast<uint64_t>(r[L::kSaturated]);
        eval.sig_rejects = 1;
        continue;
      }
    }
    passed->push_back(static_cast<uint32_t>(i));
  }
}

PairEvaluation RefinePair(const ImputedTuple& a,
                          const TopicQuery::TupleTopic& a_topic,
                          const ImputedTuple& b,
                          const TopicQuery::TupleTopic& b_topic, double gamma,
                          double alpha) {
  PairEvaluation eval;
  SigFilterCounters sig;
  const RefineResult refine =
      RefineProbability(a, a_topic, b, b_topic, gamma, alpha, &sig);
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

}  // namespace terids
