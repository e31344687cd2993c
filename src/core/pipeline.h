#ifndef TERIDS_CORE_PIPELINE_H_
#define TERIDS_CORE_PIPELINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/arrival_context.h"
#include "core/config.h"
#include "er/match_set.h"
#include "er/pruning.h"
#include "er/topic.h"
#include "eval/cost_breakdown.h"
#include "eval/latency_histogram.h"
#include "exec/refinement_executor.h"
#include "exec/scheduler.h"
#include "imputation/imputer.h"
#include "index/cdd_index.h"
#include "repo/repository.h"
#include "rules/rule.h"
#include "stream/batch_queue.h"
#include "stream/overload.h"
#include "stream/sliding_window.h"
#include "stream/stream_driver.h"
#include "synopsis/er_grid.h"
#include "tuple/record.h"
#include "util/stopwatch.h"

namespace terids {

/// Common interface of the TER-iDS engine and all baselines: an online
/// operator that consumes stream arrivals — one at a time or in
/// timestamp-ordered micro-batches — and continuously maintains the
/// TER-iDS result set ES (Algorithm 1).
class ErPipeline {
 public:
  virtual ~ErPipeline() = default;
  virtual const std::string& name() const = 0;
  virtual ArrivalOutcome ProcessArrival(const Record& r) = 0;

  /// Processes a timestamp-ordered micro-batch (StreamDriver::NextBatch)
  /// and returns one outcome per record, in arrival order. Semantically
  /// identical to calling ProcessArrival on each record in order — the
  /// default does exactly that; PipelineBase overrides it to amortize work
  /// across the batch and refine candidate pairs in parallel.
  virtual std::vector<ArrivalOutcome> ProcessBatch(
      const std::vector<Record>& batch) {
    std::vector<ArrivalOutcome> outcomes;
    outcomes.reserve(batch.size());
    for (const Record& r : batch) {
      outcomes.push_back(ProcessArrival(r));
    }
    return outcomes;
  }

  /// Sink for per-arrival outcomes, invoked strictly in arrival order.
  using OutcomeSink = std::function<void(ArrivalOutcome&&)>;

  /// Drives the pipeline over `driver` until `max_arrivals` records have
  /// been consumed (or the driver runs dry), feeding micro-batches of up to
  /// `batch_size` records and handing every outcome to `sink` in arrival
  /// order. Returns the number of arrivals processed. The default loops
  /// NextBatch -> ProcessBatch synchronously; PipelineBase overrides it
  /// with an async double-buffered ingest loop when
  /// EngineConfig::ingest_queue_depth > 0.
  virtual size_t ProcessStream(StreamDriver* driver, size_t max_arrivals,
                               size_t batch_size, const OutcomeSink& sink);

  virtual const MatchSet& results() const = 0;
  virtual const PruneStats& cumulative_stats() const = 0;

  /// Per-arrival latency histograms (phase + end-to-end) accumulated by
  /// ProcessStream, or null for pipelines that do not account latency.
  /// Read-only; single-threaded access once the stream has completed.
  virtual const LatencyStats* arrival_latencies() const { return nullptr; }
  /// Drains the unified scheduler (if this pipeline runs one) and returns
  /// its per-work-item service-time histograms, clearing them. Empty stats
  /// for pipelines without a scheduler. Call only at stream quiescence.
  virtual LatencyStats ConsumeSchedulerLatencies() { return LatencyStats(); }
  /// Admission-control accounting of the async ProcessStream (DESIGN.md
  /// §13), or null for pipelines without an overload layer. Read only after
  /// the stream has quiesced (ProcessStream returned).
  virtual const ShedStats* shed_stats() const { return nullptr; }
};

/// Shared implementation: sliding windows, optional ER-grid, result-set
/// maintenance with eviction cascade, and the refinement loop, decomposed
/// into four explicit phases (DESIGN.md §6):
///
///   ImputePhase    — probe coordinates, imputation, topic classification
///   CandidatePhase — ER-grid probe or linear window scan, then the
///                    batched Theorem 4.1-4.3 + signature cascade over the
///                    candidates' grid rows
///   RefinePhase    — the per-pair cascade / exact refinement of the pairs
///                    the batched cascade passed
///   MaintainPhase  — grid + window insertion, eviction cascade
///
/// ProcessArrival runs the phases back-to-back for one record; the batched
/// operator runs impute/candidates/maintain per record in arrival order
/// (so intra-batch pairs and evictions behave exactly as in sequential
/// processing), defers all pair refinement into one batch-wide task set,
/// executes it on the RefinementExecutor, and replays match insertion and
/// result-set eviction in arrival order. ProcessStream additionally
/// pipelines the two stages across batches on a scheduler worker when
/// EngineConfig::ingest_queue_depth > 0 (DESIGN.md §7, §10). Output is
/// bit-for-bit identical to sequential processing for every batch_size /
/// refine_threads / ingest_queue_depth setting.
///
/// Subclasses override the imputation hook (and inherit either the
/// grid-based or linear candidate generation depending on configuration).
class PipelineBase : public ErPipeline {
 public:
  /// `num_streams` windows are created. If `use_grid`, candidates come from
  /// the ER-grid with cell-level pruning; otherwise from a linear window
  /// scan. If `use_prunings`, pairs go through Theorems 4.1-4.4 before
  /// refinement; otherwise the exact probability is always computed (the
  /// unpruned baselines).
  PipelineBase(Repository* repo, EngineConfig config, int num_streams,
               bool use_grid, bool use_prunings, std::string name);

  const std::string& name() const override { return name_; }
  ArrivalOutcome ProcessArrival(const Record& r) override;
  std::vector<ArrivalOutcome> ProcessBatch(
      const std::vector<Record>& batch) override;
  /// With `ingest_queue_depth == 0`, the synchronous default loop. With a
  /// positive depth, a two-stage pipeline: a kIngest chain on the scheduler
  /// pulls batches from the driver and runs impute/candidates/maintain (the
  /// window, grid, and imputer state is owned by the chain for the
  /// duration), pushing ingested batches through a bounded BatchQueue; the
  /// calling thread pops batches in order, runs deferred refinement +
  /// replay, and emits outcomes — so ingest of batch k+1 overlaps
  /// refinement of batch k.
  /// Output is bit-identical to the synchronous loop for every queue depth.
  size_t ProcessStream(StreamDriver* driver, size_t max_arrivals,
                       size_t batch_size, const OutcomeSink& sink) override;
  const MatchSet& results() const override { return matches_; }
  const PruneStats& cumulative_stats() const override { return cum_stats_; }
  const LatencyStats* arrival_latencies() const override { return &latency_; }
  LatencyStats ConsumeSchedulerLatencies() override {
    return sched_ != nullptr ? sched_->ConsumeLatencies() : LatencyStats();
  }
  const ShedStats* shed_stats() const override { return &shed_; }

  /// Live tuples of one stream's window (inspection / tests).
  const SlidingWindow& window(int stream_id) const;

 protected:
  /// Imputation hook: candidate distributions for the missing attributes of
  /// `r`. Default delegates to `imputer_` (must be set by the subclass).
  virtual std::vector<ImputedTuple::ImputedAttr> Impute(const Record& r,
                                                        const ProbeCoords& pc,
                                                        CostBreakdown* cost);

  // --- Arrival pipeline phases (Algorithm 2) -----------------------------

  /// Lines 8-10: probe coordinates, imputation, topic classification.
  void ImputePhase(ArrivalContext* ctx);
  /// Lines 14-16: candidate generation (grid probe or linear scan); grid
  /// cell-level kills are charged to the arrival's PruneStats. With the
  /// grid and the prunings, the batched pair cascade (EvaluateCandidates)
  /// then decides Theorems 4.1-4.3 and the signature reject over the
  /// candidates' grid rows, folds its rejects into the arrival's stats and
  /// leaves only the pairs it passes as candidates.
  void CandidatePhase(ArrivalContext* ctx);
  /// Lines 17-26: the per-pair cascade (EvaluatePair) over the remaining
  /// candidates, folding evaluations into the arrival's stats and the
  /// result set immediately.
  void RefinePhase(ArrivalContext* ctx);
  /// Lines 2-7, 11-13: grid + window insertion and the eviction cascade.
  /// The expired tuple must be in the grid: a window/grid desync aborts
  /// here rather than leave a stale member producing candidates.
  /// When `defer_result_eviction`, the expired tuple's MatchSet removal is
  /// left to the caller (batched mode replays it after deferred
  /// refinement, in arrival order) and the tuple is parked in
  /// `ctx->evicted` so deferred refine tasks can still dereference it.
  void MaintainPhase(ArrivalContext* ctx, bool defer_result_eviction);

  Repository* repo_;
  EngineConfig config_;
  /// The one parallel executor: max(sched_threads, 1 if
  /// ingest_queue_depth > 0) workers, null when that is 0 (every fan-out
  /// inline). Declared before every member whose methods dispatch onto it
  /// so it is destroyed last (after draining all pending work).
  std::unique_ptr<Scheduler> sched_;
  TopicQuery topic_;
  std::vector<SlidingWindow> windows_;
  std::unique_ptr<ErGrid> grid_;
  std::unique_ptr<Imputer> imputer_;
  MatchSet matches_;
  PruneStats cum_stats_;
  bool use_prunings_;
  std::string name_;

 private:
  /// One micro-batch after the ingest stage: per-arrival contexts with
  /// impute/candidates/maintain done and refinement pending, plus the
  /// ingest-stage wall time (charged into batch_seconds at replay) and the
  /// admission stopwatch started when the batch left the driver (the
  /// end-to-end latency origin for each of its arrivals).
  struct IngestedBatch {
    std::vector<ArrivalContext> ctxs;
    double ingest_wall = 0.0;
    Stopwatch admit;
    /// How the overload layer routed this batch (DESIGN.md §13): the
    /// producer stage stamps it at admission (degrade) or in place on the
    /// queue under the queue mutex (shed_oldest); the consumer stage
    /// dispatches refinement on it.
    ArrivalDisposition disposition = ArrivalDisposition::kProcessed;
  };

  /// Result of one producer step of the async pipeline.
  enum class ProduceResult {
    kContinue,   // a batch was admitted (or shed); keep producing
    kExhausted,  // stream dry or max_arrivals reached; Close() the queue
    kCancelled,  // consumer cancelled the handoff; stop silently
  };

  std::vector<const WindowTuple*> LinearCandidates(const WindowTuple& probe,
                                                   PruneStats* stats) const;
  /// Folds one pair evaluation into the arrival's outcome and, on a match,
  /// the result set (the single place MatchPairs are constructed).
  void ApplyEvaluation(ArrivalContext* ctx, const WindowTuple* cand,
                       const PairEvaluation& eval);
  /// Ingest stage: impute/candidates/maintain per record
  /// in arrival order with refinement deferred and result-set eviction
  /// parked in each context. Touches windows_/grid_/imputer_ only — under
  /// async ingest it runs in the kIngest chain.
  void IngestBatch(const std::vector<Record>& batch,
                   std::vector<ArrivalContext>* ctxs);
  /// Refine stage: builds the batch-wide task set, runs it on the
  /// RefinementExecutor, and replays match insertion, stats accumulation,
  /// and deferred result-set evictions in arrival order. Touches matches_
  /// and cum_stats_ only — under async ingest it runs on the calling
  /// thread, concurrently with the next batch's ingest.
  void RefineAndReplay(std::vector<ArrivalContext>* ctxs);
  /// Shed replay (disposition kShed, DESIGN.md §13): no pair is evaluated —
  /// candidate pairs are counted into ShedStats — but the batch's deferred
  /// result-set evictions still run and its stats still accumulate, so the
  /// window/grid/result-set invariants survive the shed. Consumer stage.
  void ReplayShed(std::vector<ArrivalContext>* ctxs);
  /// Degraded replay (disposition kDegraded): every candidate pair goes
  /// through the bound-only EvaluatePairBounds inline (cheap enough that
  /// fan-out would cost more than it saves); decided pairs fold in exactly
  /// like full evaluations, undecided ones are recorded deferred. Evictions
  /// and stats replay as in RefineAndReplay. Consumer stage.
  void RefineAndReplayDegraded(std::vector<ArrivalContext>* ctxs);
  /// The queue-pressure signal (DESIGN.md §13): handoff-queue occupancy at
  /// capacity, or the scheduler's unclaimed non-ingest backlog exceeding
  /// kSchedBacklogPressureFactor x the queue capacity. Producer stage.
  bool PressureHigh(BatchQueue<IngestedBatch>* queue);
  /// One producer step of the async pipeline: pulls the next micro-batch
  /// from the driver, applies config_.overload_policy at admission, and
  /// hands the ingested batch to `queue` — the body of one kIngest chain
  /// link. Producer stage: touches windows_/grid_/imputer_/driver and the
  /// producer fields of shed_.
  ProduceResult ProduceOne(StreamDriver* driver, size_t max_arrivals,
                           size_t batch_size,
                           BatchQueue<IngestedBatch>* queue, size_t* ingested);
  /// The async consumer loop: pops batches until the queue closes,
  /// dispatches refinement on each batch's disposition, and emits outcomes
  /// in arrival order with batch/queue-wait/latency accounting. Returns
  /// arrivals emitted.
  size_t DrainQueue(BatchQueue<IngestedBatch>* queue, const OutcomeSink& sink);
  /// Folds one emitted arrival into the per-arrival latency histograms:
  /// phase latencies from the outcome's cost fields, end-to-end from
  /// `e2e_seconds` (batch admission to emission). Caller-thread only.
  void RecordArrivalLatency(const CostBreakdown& cost, double e2e_seconds);
  /// The pipelined ProcessStream body: the scheduler's self-resubmitting
  /// kIngest chain feeding DrainQueue (DESIGN.md §7, §10).
  size_t ProcessStreamScheduled(StreamDriver* driver, size_t max_arrivals,
                                size_t batch_size, const OutcomeSink& sink);

  /// Fans refinement out on sched_ when refine_threads > 1, else inline.
  RefinementExecutor refiner_;
  /// Batched-cascade scratch of CandidatePhase (ingest side).
  std::vector<double> probe_row_;
  std::vector<PairEvaluation> kernel_evals_;
  std::vector<uint32_t> kernel_passed_;
  /// Per-arrival latency accounting, updated at emission on the consumer
  /// (calling) thread only.
  LatencyStats latency_;
  /// Overload accounting (DESIGN.md §13). Field ownership is split by
  /// pipeline stage exactly as documented on ShedStats — admission fields
  /// belong to the producer, refinement fields to the consumer — and
  /// readers wait for stream quiescence, so no lock is needed.
  ShedStats shed_;
};

/// Constructs one of the six evaluated pipelines. The rule vectors are
/// copied into the pipeline (each pipeline owns its rules). `repo` must
/// outlive the pipeline and have pivots attached.
std::unique_ptr<ErPipeline> MakePipeline(PipelineKind kind, Repository* repo,
                                         const EngineConfig& config,
                                         int num_streams,
                                         const std::vector<CddRule>& cdds,
                                         const std::vector<CddRule>& dds,
                                         const std::vector<CddRule>& editing);

}  // namespace terids

#endif  // TERIDS_CORE_PIPELINE_H_
