#ifndef TERIDS_STREAM_OVERLOAD_H_
#define TERIDS_STREAM_OVERLOAD_H_

#include <cstdint>
#include <string>

#include "eval/latency_histogram.h"

namespace terids {

/// What the async ingest path does when the refinement stage falls behind
/// the arrival stream (DESIGN.md §13). Only meaningful with
/// EngineConfig::ingest_queue_depth >= 1 — the synchronous operator has no
/// stage to fall behind.
enum class OverloadPolicy {
  /// Backpressure (seed behavior, the equivalence oracle): the producer
  /// blocks in BatchQueue::Push until refinement drains a slot. Every
  /// arrival is fully processed; under sustained overload the unprocessed
  /// stream backs up without bound and per-arrival sojourn grows secularly.
  kBlock,
  /// Admission control: when the pressure signal fires, the newest batch is
  /// dropped *before* ingestion — it never touches the window, grid, or
  /// imputer, so the engine state equals a run over the admitted
  /// subsequence. Shed arrivals emit no outcome.
  kShedNewest,
  /// Load shedding at the refinement boundary: arrivals are always
  /// ingested (window/grid/imputer state stays complete), but when the
  /// handoff queue is full the longest-waiting queued batch forfeits its
  /// refinement — its candidate pairs are counted shed, its deferred
  /// result-set evictions still replay, and its outcomes emit with
  /// disposition kShed.
  kShedOldest,
  /// Graceful degradation: everything is admitted (the queue bound is
  /// waived under pressure so admission never blocks), but pressured
  /// batches refine with signature-bound-only verdicts
  /// (EvaluatePairBounds): cheap upper bounds can still prune, and pairs
  /// the bounds cannot decide are recorded as PairOutcome::kDeferred —
  /// explicitly unresolved, never silently refuted.
  kDegrade,
};

const char* OverloadPolicyName(OverloadPolicy policy);

/// Parses "block" / "shed_newest" / "shed_oldest" / "degrade" (the
/// TERIDS_BENCH_OVERLOAD spellings). Returns false — leaving `*policy`
/// untouched — for anything else.
bool ParseOverloadPolicy(const std::string& name, OverloadPolicy* policy);

/// Scheduler-backlog multiple of the handoff-queue capacity above which the
/// pressure signal fires even when the queue itself still has room (the
/// consumer's fan-outs are saturating the shared workers).
inline constexpr int64_t kSchedBacklogPressureFactor = 4;

/// Admission-control accounting of one stream run (DESIGN.md §13). Writer
/// discipline under the async pipeline: the admission fields below are
/// written by the producer stage only, the refinement fields by the
/// consumer stage only, and readers consume the struct after the stream has
/// quiesced (ingest join / chain latch), so no field ever has two
/// concurrent writers.
struct ShedStats {
  // --- Admission (producer stage) ------------------------------------------
  /// Every arrival the producer pulled from the driver, whatever its fate.
  int64_t offered_arrivals = 0;
  /// Arrivals ingested into the engine (includes degraded ones; shed_oldest
  /// arrivals are admitted first and shed later, so admitted + shed can
  /// exceed offered under that policy).
  int64_t admitted_arrivals = 0;
  /// Arrivals that emitted no outcome: dropped pre-ingest (shed_newest) or
  /// stripped of refinement (shed_oldest; counted by the consumer stage).
  int64_t shed_arrivals = 0;
  int64_t shed_batches = 0;
  /// Arrivals admitted under pressure and refined with bound-only verdicts.
  int64_t degraded_arrivals = 0;
  int64_t degraded_batches = 0;
  /// Times the pressure signal fired at an admission decision.
  int64_t pressure_events = 0;
  /// Producer wall time spent blocked in the bounded Push — the
  /// backpressure cost the block policy pays instead of shedding.
  double admit_block_seconds = 0.0;

  // --- Refinement (consumer stage) -----------------------------------------
  /// Candidate pairs whose evaluation was skipped entirely (shed_oldest):
  /// those the batched cascade passed at ingest. Its rejects were already
  /// decided there, like the grid's kills.
  int64_t shed_pairs = 0;
  /// Degrade-mode pairs the cheap bounds could not decide, recorded as
  /// PairOutcome::kDeferred (never as a refute).
  int64_t deferred_pairs = 0;

  /// Work dropped or deferred, attributed to the pipeline phase that gave
  /// it up: kIngest counts arrivals shed at admission, kRefine counts
  /// pairs shed or deferred at refinement. Same writer split as above
  /// (distinct slots, never two writers on one slot).
  int64_t shed_by_phase[kNumExecPhases] = {0, 0, 0, 0};

  /// Whether any overload action fired (false for a whole run under block,
  /// or under any policy that never saw pressure — the policy-inert regime
  /// the equivalence sweep pins to the oracle).
  bool any() const {
    return shed_arrivals > 0 || degraded_arrivals > 0 || shed_pairs > 0 ||
           deferred_pairs > 0 || pressure_events > 0;
  }

  /// Fraction of offered arrivals that were shed.
  double ShedRate() const {
    return offered_arrivals == 0
               ? 0.0
               : static_cast<double>(shed_arrivals) /
                     static_cast<double>(offered_arrivals);
  }

  void Add(const ShedStats& other);
  /// One JSON object (for CostBreakdown-style bench artifacts).
  std::string ToJson() const;
};

}  // namespace terids

#endif  // TERIDS_STREAM_OVERLOAD_H_
