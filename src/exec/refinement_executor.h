#ifndef TERIDS_EXEC_REFINEMENT_EXECUTOR_H_
#define TERIDS_EXEC_REFINEMENT_EXECUTOR_H_

#include <vector>

#include "er/pruning.h"
#include "exec/scheduler.h"
#include "stream/sliding_window.h"

namespace terids {

/// Parallel refinement of the pairs left after candidate generation
/// (Theorem 4.4 plus the exact probability), the embarrassingly parallel
/// part of the arrival pipeline: every pair evaluation reads only immutable
/// tuple state and the repository, so pairs shard freely across workers.
///
/// Determinism contract: `Run` fills `evaluations[i]` for `tasks[i]` — each
/// worker owns a disjoint set of evaluation slots and writes only those, so
/// the result is independent of scheduling. The caller folds the per-pair
/// evaluations into PruneStats / the match set in task (candidate) order,
/// which reproduces the sequential loop exactly.
///
/// On the grid path the tasks are the pairs the batched cascade
/// (EvaluateCandidates, DESIGN.md §6) passed at ingest, so every shard
/// holds verify-heavy work and the tasks are sharded uniformly.
///
/// Locking model (DESIGN.md §12): the executor itself holds no mutex. Task
/// inputs are immutable for the duration of Run, each worker writes only
/// its disjoint evaluation slots (plus thread_local scratch), and the
/// synchronization lives entirely inside the scheduler it dispatches on
/// (the kScheduler mutex), whose fork/join barrier publishes the slots back
/// to the caller.
class RefinementExecutor {
 public:
  /// One pair to evaluate: an arriving probe tuple against one window
  /// candidate. Pointees must stay alive and unmodified for the duration of
  /// Run (the batched pipeline holds shared_ptrs for evicted candidates).
  struct Task {
    const ImputedTuple* probe = nullptr;
    const TopicQuery::TupleTopic* probe_topic = nullptr;
    const WindowTuple* candidate = nullptr;
  };

  /// Run fans out as kRefine work items on `scheduler` (not owned, must
  /// outlive the executor; DESIGN.md §10); null evaluates inline on the
  /// caller.
  explicit RefinementExecutor(Scheduler* scheduler = nullptr)
      : scheduler_(scheduler) {}

  /// Evaluates a single pair — the unit of work every worker runs, also
  /// usable directly by the sequential refinement loop (no task vector, no
  /// dispatch).
  static PairEvaluation Evaluate(const Task& task, bool pruned,
                                 double gamma, double alpha);

  /// Fan-out width Run shards tasks for: the scheduler's concurrency
  /// (workers + caller), or 1 without a scheduler.
  int num_threads() const {
    return scheduler_ != nullptr ? scheduler_->concurrency() : 1;
  }

  /// Evaluates every task. With `pruned` each task is a pair the batched
  /// cascade (EvaluateCandidates) passed, and refinement starts at Theorem
  /// 4.4 (RefinePair); without it the exact probability is always computed,
  /// reproducing the unpruned baselines. `evaluations` is resized to
  /// `tasks.size()`.
  void Run(const std::vector<Task>& tasks, bool pruned, double gamma,
           double alpha, std::vector<PairEvaluation>* evaluations);

 private:
  Scheduler* scheduler_;
};

}  // namespace terids

#endif  // TERIDS_EXEC_REFINEMENT_EXECUTOR_H_
