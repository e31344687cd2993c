#ifndef TERIDS_CORE_PIPELINE_H_
#define TERIDS_CORE_PIPELINE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/arrival_context.h"
#include "core/config.h"
#include "er/match_set.h"
#include "er/pruning.h"
#include "er/topic.h"
#include "eval/cost_breakdown.h"
#include "eval/latency_histogram.h"
#include "imputation/imputer.h"
#include "repo/repository.h"
#include "rules/rule.h"
#include "stream/sliding_window.h"
#include "stream/stream_driver.h"
#include "tuple/record.h"
#include "util/stopwatch.h"

namespace terids {

/// Read by terbench; always 0 since async ingest was removed.
struct ShedStats {
  double admit_block_seconds = 0.0;
};

/// The online operator shared by the TER-iDS engine and all baselines: it
/// consumes stream arrivals one at a time and continuously maintains the
/// TER-iDS result set ES (Algorithm 1). It owns the sliding windows (the
/// one store of the live tuples and their rows), result-set maintenance
/// with the eviction cascade, and the refinement loop, decomposed into four
/// explicit phases (DESIGN.md §6):
///
///   ImputePhase    — live-rid guard, imputation, topic classification
///   CandidatePhase — scan of the other streams' windows; on the pruned
///                    path the tuple-level topic test, then the batched
///                    Theorem 4.1-4.3 + signature cascade over each
///                    window's rows
///   RefinePhase    — Theorem 4.4 / exact refinement of the pairs the
///                    batched cascade passed (RefinePair), or the exact
///                    probability of every pair (unpruned baselines)
///   MaintainPhase  — window push, eviction cascade
///
/// ProcessArrival runs the phases back-to-back for one record; it is the
/// only execution path. ProcessStream pulls NextBatch chunks, runs
/// ProcessArrival on each record in order and then emits the chunk's
/// outcomes to the sink, so batch_size changes when outcomes leave, never
/// what they are.
///
/// Subclasses override the imputation hook and pick the pruned or unpruned
/// pair path.
class PipelineBase {
 public:
  /// `num_streams` windows are created. If `pruned`, the candidate scan
  /// applies tuple-level topic pruning, the batched cascade decides
  /// Theorems 4.1-4.3 over the candidates' rows and the pairs it passes are
  /// refined with Theorem 4.4 (TER-iDS, Ij+GER). Otherwise every window
  /// tuple of the other streams is a candidate and gets the exact
  /// probability (the unpruned baselines). Either way an arrival whose rid
  /// is still live in some window aborts (TERIDS_CHECK).
  PipelineBase(Repository* repo, EngineConfig config, int num_streams,
               bool pruned, std::string name);
  virtual ~PipelineBase() = default;

  const std::string& name() const { return name_; }
  ArrivalOutcome ProcessArrival(const Record& r);

  /// Sink for per-arrival outcomes, invoked strictly in arrival order.
  using OutcomeSink = std::function<void(ArrivalOutcome&&)>;

  /// The synchronous stream loop: drives the pipeline over `driver` until
  /// `max_arrivals` records have been consumed (or the driver runs dry).
  /// Each NextBatch chunk of up to `batch_size` records goes through
  /// ProcessArrival in order; then every outcome of the chunk goes to the
  /// sink, in arrival order. Returns the number of arrivals processed.
  size_t ProcessStream(StreamDriver* driver, size_t max_arrivals,
                       size_t batch_size, const OutcomeSink& sink);
  const MatchSet& results() const { return matches_; }
  const PruneStats& cumulative_stats() const { return cum_stats_; }
  /// Read by terbench; ignored since the scheduler was removed (ROADMAP
  /// item 1): always empty.
  LatencyStats ConsumeSchedulerLatencies() const { return LatencyStats(); }
  /// Read by terbench; always 0 since async ingest was removed.
  const ShedStats* shed_stats() const {
    static const ShedStats kNone;
    return &kNone;
  }

  /// One stream's window: its live tuples and their rows (inspection /
  /// tests).
  const SlidingWindow& window(int stream_id) const;

 protected:
  /// Imputation hook: candidate distributions for the missing attributes of
  /// `r`. Default delegates to `imputer_` (must be set by the subclass).
  virtual std::vector<ImputedTuple::ImputedAttr> Impute(const Record& r,
                                                        CostBreakdown* cost);

  // --- Arrival pipeline phases (Algorithm 2) -----------------------------

  /// Lines 8-10: the live-rid guard, imputation, topic classification.
  void ImputePhase(ArrivalContext* ctx);
  /// Lines 14-16: candidate generation over the other streams' windows.
  /// On the pruned path the scan's tuple-level topic kills are charged to
  /// the arrival's PruneStats, and the batched pair cascade
  /// (EvaluateCandidates) then decides Theorems 4.1-4.3 and the signature
  /// reject over each window's rows, folds its rejects into the arrival's
  /// stats and leaves only the pairs it passes as candidates.
  void CandidatePhase(ArrivalContext* ctx);
  /// Lines 17-26: refinement of the remaining candidates (RefinePair on the
  /// pruned path, the exact probability otherwise), folding evaluations into
  /// the arrival's stats and the result set immediately.
  void RefinePhase(ArrivalContext* ctx);
  /// Lines 2-7, 11-13: the window push and the eviction cascade.
  void MaintainPhase(ArrivalContext* ctx);

  Repository* repo_;
  EngineConfig config_;
  TopicQuery topic_;
  std::vector<SlidingWindow> windows_;
  std::unique_ptr<Imputer> imputer_;
  MatchSet matches_;
  PruneStats cum_stats_;
  std::string name_;

 private:
  /// Folds one pair evaluation into the arrival's outcome and, on a match,
  /// the result set (the single place MatchPairs are constructed).
  void ApplyEvaluation(ArrivalContext* ctx, const WindowTuple& cand,
                       const PairEvaluation& eval);

  bool pruned_;
  /// The rid of every tuple from its arrival to its eviction.
  std::unordered_set<int64_t> live_rids_;
  /// Candidate-scan and batched-cascade scratch of CandidatePhase.
  std::vector<uint32_t> scan_slots_;
  std::vector<PairEvaluation> kernel_evals_;
  std::vector<uint32_t> kernel_passed_;
};

/// Constructs one of the six evaluated pipelines. The rule vectors are
/// copied into the pipeline (each pipeline owns its rules). `repo` must
/// outlive the pipeline and have pivots attached.
std::unique_ptr<PipelineBase> MakePipeline(
    PipelineKind kind, Repository* repo, const EngineConfig& config,
    int num_streams, const std::vector<CddRule>& cdds,
    const std::vector<CddRule>& dds, const std::vector<CddRule>& editing);

}  // namespace terids

#endif  // TERIDS_CORE_PIPELINE_H_
