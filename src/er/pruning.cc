#include "er/pruning.h"

#include "er/bounds.h"
#include "er/probability.h"
#include "text/similarity_kernels.h"

namespace terids {

PairEvaluation EvaluatePair(const ImputedTuple& a,
                            const TopicQuery::TupleTopic& a_topic,
                            const ImputedTuple& b,
                            const TopicQuery::TupleTopic& b_topic,
                            double gamma, double alpha) {
  PairEvaluation eval;

  // Theorem 4.1: no instance of either tuple contains a query keyword.
  if (!a_topic.any && !b_topic.any) {
    eval.outcome = PairOutcome::kTopicPruned;
    return eval;
  }

  // Theorem 4.2 via Lemmas 4.1 and 4.2.
  if (UbSim(a, b) <= gamma) {
    eval.outcome = PairOutcome::kSimUbPruned;
    return eval;
  }

  // Theorem 4.3 via Lemma 4.3.
  if (UbProbPaleyZygmund(a, b, gamma) <= alpha) {
    eval.outcome = PairOutcome::kProbUbPruned;
    return eval;
  }

  // Refinement with Theorem 4.4 early termination.
  SigFilterCounters sig;
  RefineResult refine =
      RefineProbability(a, a_topic, b, b_topic, gamma, alpha, &sig);
  eval.sig_probes = sig.probes;
  eval.sig_saturated = sig.saturated;
  eval.sig_rejects = sig.rejects;
  if (refine.early_pruned) {
    eval.outcome = PairOutcome::kInstancePruned;
    return eval;
  }
  if (refine.probability > alpha) {
    eval.outcome = PairOutcome::kMatched;
    eval.probability = refine.probability;
    return eval;
  }
  eval.outcome = PairOutcome::kRefuted;
  return eval;
}

PairEvaluation EvaluatePairBounds(const ImputedTuple& a,
                                  const TopicQuery::TupleTopic& a_topic,
                                  const ImputedTuple& b,
                                  const TopicQuery::TupleTopic& b_topic,
                                  double gamma, double alpha) {
  PairEvaluation eval;

  // The merge-free prefix of EvaluatePair, verbatim: Theorems 4.1-4.3.
  if (!a_topic.any && !b_topic.any) {
    eval.outcome = PairOutcome::kTopicPruned;
    return eval;
  }
  if (UbSim(a, b) <= gamma) {
    eval.outcome = PairOutcome::kSimUbPruned;
    return eval;
  }
  if (UbProbPaleyZygmund(a, b, gamma) <= alpha) {
    eval.outcome = PairOutcome::kProbUbPruned;
    return eval;
  }

  // Single-instance pairs are deterministic, so sim(a, b) is the plain
  // attribute-wise Jaccard sum and the §11 signature bound applies per
  // attribute: if even the summed upper bounds cannot clear gamma, the pair
  // is a sound Theorem 4.2-style kill without touching a token.
  if (a.num_instances() == 1 && b.num_instances() == 1) {
    const int d = a.num_attributes();
    double sim_ub = 0.0;
    for (int attr = 0; attr < d; ++attr) {
      const TokenView va = a.instance_token_view(0, attr);
      const TokenView vb = b.instance_token_view(0, attr);
      sim_ub += SigJaccardUpperBound(va.len, va.sig, vb.len, vb.sig);
      eval.sig_probes += 1;
    }
    if (sim_ub <= gamma) {
      eval.sig_rejects += 1;
      eval.outcome = PairOutcome::kSimUbPruned;
      return eval;
    }
  }

  eval.outcome = PairOutcome::kDeferred;
  return eval;
}

}  // namespace terids
