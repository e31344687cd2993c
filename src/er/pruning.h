#ifndef TERIDS_ER_PRUNING_H_
#define TERIDS_ER_PRUNING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "er/topic.h"
#include "tuple/imputed_tuple.h"
#include "tuple/pair_row.h"

namespace terids {

/// Outcome of evaluating one candidate tuple pair.
enum class PairOutcome {
  kTopicPruned,     // Theorem 4.1
  kSimUbPruned,     // Theorem 4.2 (Lemmas 4.1 / 4.2)
  kProbUbPruned,    // Theorem 4.3 (Lemma 4.3)
  kInstancePruned,  // Theorem 4.4 early termination below alpha
  kRefuted,         // fully refined, probability <= alpha
  kMatched,         // probability > alpha
};

/// Per-strategy pruning counters, reported as the "pruning power" of
/// Figure 4. Counters are at tuple-pair granularity and strategies are
/// applied in the paper's order: topic keyword (Theorem 4.1), similarity
/// upper bound (Theorem 4.2), probability upper bound (Theorem 4.3),
/// instance-pair-level (Theorem 4.4).
struct PruneStats {
  uint64_t total_pairs = 0;
  uint64_t topic_pruned = 0;
  uint64_t sim_ub_pruned = 0;
  uint64_t prob_ub_pruned = 0;
  uint64_t instance_pruned = 0;
  /// Pairs that survived all pruning and were fully refined.
  uint64_t refined = 0;
  uint64_t matched = 0;
  /// Signature-filter observability (SigFilterCounters, DESIGN.md §11):
  /// probes inspected by the popcount pass, how many were saturated (> 75%
  /// of bits set — the regime where the bound loosens), and how many
  /// instance pairs the pass certified merge-free. Unlike every counter
  /// above these are cost-side diagnostics, not outcome counts: the
  /// unpruned baselines decide pairs by plain merges (ExactProbability) and
  /// leave all three at zero, so the equivalence sweep's stats comparison
  /// deliberately excludes them.
  uint64_t sig_probes = 0;
  uint64_t sig_saturated = 0;
  uint64_t sig_rejects = 0;
  /// Read by terbench; always 0 since async ingest was removed.
  uint64_t deferred = 0;

  void Add(const PruneStats& other) {
    total_pairs += other.total_pairs;
    topic_pruned += other.topic_pruned;
    sim_ub_pruned += other.sim_ub_pruned;
    prob_ub_pruned += other.prob_ub_pruned;
    instance_pruned += other.instance_pruned;
    refined += other.refined;
    matched += other.matched;
    sig_probes += other.sig_probes;
    sig_saturated += other.sig_saturated;
    sig_rejects += other.sig_rejects;
  }

  /// Folds one pair evaluation into the counters. This is the only way the
  /// pipeline mutates stats: evaluation itself is stateless
  /// (EvaluateCandidates and RefinePair return values), so callers thread
  /// their own accumulator explicitly.
  void Record(PairOutcome outcome) {
    ++total_pairs;
    switch (outcome) {
      case PairOutcome::kTopicPruned:
        ++topic_pruned;
        break;
      case PairOutcome::kSimUbPruned:
        ++sim_ub_pruned;
        break;
      case PairOutcome::kProbUbPruned:
        ++prob_ub_pruned;
        break;
      case PairOutcome::kInstancePruned:
        ++instance_pruned;
        break;
      case PairOutcome::kRefuted:
        ++refined;
        break;
      case PairOutcome::kMatched:
        ++refined;
        ++matched;
        break;
    }
  }

  double PowerOf(uint64_t count) const {
    return total_pairs == 0
               ? 0.0
               : static_cast<double>(count) / static_cast<double>(total_pairs);
  }
  double TotalPower() const {
    return PowerOf(topic_pruned + sim_ub_pruned + prob_ub_pruned +
                   instance_pruned);
  }
  /// Fraction (in percent) of signature probes that were saturated — the
  /// production-visible signal that 64-bit signatures are too narrow for
  /// the workload's token-set lengths.
  double SigSaturatedPct() const {
    return sig_probes == 0 ? 0.0
                           : 100.0 * static_cast<double>(sig_saturated) /
                                 static_cast<double>(sig_probes);
  }
};

/// Value result of one pair evaluation: the cascade outcome plus, for a
/// match, the (possibly partial, see RefineResult) probability.
struct PairEvaluation {
  PairOutcome outcome = PairOutcome::kRefuted;
  /// Meaningful only when `outcome == kMatched`.
  double probability = 0.0;
  /// Signature-filter observability for this pair (folded into PruneStats'
  /// sig_* counters by the pipeline); all zero when the cascade pruned the
  /// pair before refinement or an unpruned baseline refined it.
  uint64_t sig_probes = 0;
  uint64_t sig_saturated = 0;
  uint64_t sig_rejects = 0;

  bool matched() const { return outcome == PairOutcome::kMatched; }
};

/// The batched pair cascade (DESIGN.md §6), the one place Theorems 4.2 and
/// 4.3 are decided: one probe against a whole candidate list over
/// fixed-stride rows, with the probe's terms hoisted. Candidate i's row
/// starts at rows + slots[i] * layout.stride(), with its topic word set;
/// `probe_row` is the probe's own row (ImputedTuple::row) and
/// `probe_topical` its Theorem 4.1 bit. For each candidate the kernel
/// applies, in the paper's order, Theorem 4.1, Theorem 4.2 (Lemmas 4.1 and
/// 4.2), Theorem 4.3 (Lemma 4.3) and, for single-instance pairs with
/// d <= kSigPassMaxAttrs and alpha >= 0, the pass-1 signature reject of
/// InstanceSimilarityExceeds: the per-attribute SigJaccardUpperBound over
/// the two rows' lengths and signatures, summed in attribute order with
/// the same double rounding, rejects when the sum is <= gamma. A candidate
/// one of them rejects gets in (*evals)[i] its outcome and, for a
/// signature reject, the three sig counters RefineProbability would have
/// counted.
/// Every other index is appended to `passed` in ascending order and goes
/// to RefinePair. `evals` is resized to n; entries of passed indices are
/// left default.
void EvaluateCandidates(const PairRowLayout& layout, const double* probe_row,
                        bool probe_topical, const double* rows,
                        const uint32_t* slots, size_t n, double gamma,
                        double alpha, std::vector<PairEvaluation>* evals,
                        std::vector<uint32_t>* passed);

/// Instance-level refinement of one pair: RefineProbability with Theorem
/// 4.4 early termination, then the exact probability, mapped to
/// kInstancePruned, kMatched or kRefuted with the signature counters.
/// Precondition: EvaluateCandidates passed the pair. Theorems 4.1-4.3 are
/// not repeated here, so on any other pair the outcome can name a later
/// stage than the cascade would. Pure function of its arguments — no
/// shared mutable state — so concurrent calls are safe; callers fold the
/// returned evaluation into their own PruneStats via PruneStats::Record.
/// Instance-level verdicts go through the signature-bounded Jaccard
/// kernel, which skips merges only: the outcome equals the plain-merge
/// one.
PairEvaluation RefinePair(const ImputedTuple& a,
                          const TopicQuery::TupleTopic& a_topic,
                          const ImputedTuple& b,
                          const TopicQuery::TupleTopic& b_topic, double gamma,
                          double alpha);

}  // namespace terids

#endif  // TERIDS_ER_PRUNING_H_
