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

  // Candidates awaiting the signature pass, their lengths and signatures
  // gathered while the row is hot (the probe's side repeated per pair, as
  // SigFilterCandidates takes both sides flat), and the verdict "passed".
  thread_local std::vector<uint32_t> sig_index;
  thread_local std::vector<uint32_t> len_a;
  thread_local std::vector<uint32_t> len_b;
  thread_local std::vector<uint64_t> sig_a;
  thread_local std::vector<uint64_t> sig_b;
  thread_local std::vector<uint8_t> keep;
  sig_index.clear();
  keep.assign(n, 0);
  if (sig_probe) {
    len_a.resize(n * du);
    len_b.resize(n * du);
    sig_a.resize(n * du);
    sig_b.resize(n * du);
  }

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
      const size_t base = sig_index.size() * du;
      for (size_t k = 0; k < du; ++k) {
        len_a[base + k] = layout.token_len(p, static_cast<int>(k));
        sig_a[base + k] = layout.signature(p, static_cast<int>(k));
        len_b[base + k] = layout.token_len(r, static_cast<int>(k));
        sig_b[base + k] = layout.signature(r, static_cast<int>(k));
      }
      sig_index.push_back(static_cast<uint32_t>(i));
    } else {
      keep[i] = 1;
    }
  }

  if (!sig_index.empty()) {
    // Pass 1 of InstanceSimilarityExceeds for every waiting pair in one
    // SigFilterCandidates sweep.
    const size_t m = sig_index.size();
    thread_local std::vector<uint64_t> survivors;
    survivors.resize((m + 63) / 64);
    SigFilterBatch batch;
    batch.num_pairs = m;
    batch.d = d;
    batch.len_a = len_a.data();
    batch.len_b = len_b.data();
    batch.sig_a = sig_a.data();
    batch.sig_b = sig_b.data();
    (void)SigFilterCandidates(batch, gamma, survivors.data());
    const uint64_t p_saturated = static_cast<uint64_t>(p[L::kSaturated]);
    for (size_t j = 0; j < m; ++j) {
      const uint32_t i = sig_index[j];
      if ((survivors[j >> 6] >> (j & 63)) & 1) {
        keep[i] = 1;
        continue;
      }
      const double* r = rows + static_cast<size_t>(slots[i]) * stride;
      PairEvaluation& eval = (*evals)[i];
      eval.outcome = PairOutcome::kInstancePruned;
      eval.sig_probes = 2 * du;
      eval.sig_saturated =
          p_saturated + static_cast<uint64_t>(r[L::kSaturated]);
      eval.sig_rejects = 1;
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (keep[i]) {
      passed->push_back(static_cast<uint32_t>(i));
    }
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
