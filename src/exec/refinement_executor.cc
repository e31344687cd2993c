#include "exec/refinement_executor.h"

#include <algorithm>
#include <vector>

#include "er/probability.h"

namespace terids {

PairEvaluation RefinementExecutor::Evaluate(const Task& task, bool pruned,
                                            double gamma, double alpha) {
  const WindowTuple& cand = *task.candidate;
  if (pruned) {
    return RefinePair(*task.probe, *task.probe_topic, *cand.tuple, cand.topic,
                      gamma, alpha);
  }
  // Unpruned baselines: every pair is fully refined with the plain-merge
  // exact probability, matching the sequential unpruned loop bit-for-bit.
  PairEvaluation eval;
  eval.probability = ExactProbability(*task.probe, *task.probe_topic,
                                      *cand.tuple, cand.topic, gamma);
  eval.outcome = eval.probability > alpha ? PairOutcome::kMatched
                                          : PairOutcome::kRefuted;
  return eval;
}

void RefinementExecutor::Run(const std::vector<Task>& tasks,
                             bool pruned, double gamma, double alpha,
                             std::vector<PairEvaluation>* evaluations) {
  const int64_t n = static_cast<int64_t>(tasks.size());
  evaluations->resize(tasks.size());
  if (n == 0) {
    return;
  }
  if (scheduler_ == nullptr) {
    for (int64_t i = 0; i < n; ++i) {
      (*evaluations)[i] = Evaluate(tasks[i], pruned, gamma, alpha);
    }
    return;
  }
  // At most one contiguous shard per participant (workers + caller): the
  // batched cascade leaves few pairs per batch, so finer shards would cost
  // one scheduler item per pair.
  const int64_t max_shards = std::min<int64_t>(n, num_threads());
  const int64_t shard_size = (n + max_shards - 1) / max_shards;
  const int64_t shards = (n + shard_size - 1) / shard_size;
  const auto run_shard = [&](int64_t shard) {
    const int64_t begin = shard * shard_size;
    const int64_t end = std::min(n, begin + shard_size);
    for (int64_t i = begin; i < end; ++i) {
      (*evaluations)[i] = Evaluate(tasks[i], pruned, gamma, alpha);
    }
  };
  scheduler_->ParallelFor(ExecPhase::kRefine, shards, run_shard);
}

}  // namespace terids
