#include "exec/refinement_executor.h"

#include <algorithm>
#include <vector>

#include "er/probability.h"
#include "text/similarity_kernels.h"

namespace terids {

namespace {

/// Stack-budget mirror of similarity.cc's kMaxAttrs: schemas wider than
/// this skip the batched prefilter (the per-pair kernel falls back to
/// plain exact merges there too).
constexpr int kPrefilterMaxAttrs = 64;

/// Splits the task list into `heavy` (tasks that may run token merges —
/// what actually gets scheduled across workers) and `light` (tasks whose
/// evaluation is provably merge-free: topic-killed pairs, plus
/// single-instance pairs the batched signature pass rejected). The
/// classification is placement-only — every task still runs the full,
/// unchanged Evaluate, so the output and every PruneStats outcome counter
/// are bit-identical whether or not the prefilter ran; light tasks merely
/// re-derive their cheap popcount verdict inside the kernel. What the
/// batching buys is one SIMD sweep over the candidate list's SoA
/// signatures (SigFilterCandidates) and shards that contain only
/// verify-heavy work, instead of merges interleaved with popcount-only
/// rejects.
void ClassifyTasks(const std::vector<RefinementExecutor::Task>& tasks,
                   double gamma, std::vector<int64_t>* heavy,
                   std::vector<int64_t>* light) {
  const int64_t n = static_cast<int64_t>(tasks.size());
  heavy->reserve(static_cast<size_t>(n));
  const int d = tasks[0].probe->num_attributes();
  if (d > kPrefilterMaxAttrs) {
    for (int64_t i = 0; i < n; ++i) {
      heavy->push_back(i);
    }
    return;
  }
  // SoA gather of the (pair, attribute) lens + signatures for the
  // single-instance pairs, row-major — the layout SigFilterCandidates
  // sweeps in one pass. Thread-local scratch: Run dispatches from one
  // thread, and steady-state batches then reuse the buffers.
  thread_local std::vector<int64_t> eligible;
  thread_local std::vector<uint32_t> len_a;
  thread_local std::vector<uint32_t> len_b;
  thread_local std::vector<uint64_t> sig_a;
  thread_local std::vector<uint64_t> sig_b;
  eligible.clear();
  len_a.clear();
  len_b.clear();
  sig_a.clear();
  sig_b.clear();
  for (int64_t i = 0; i < n; ++i) {
    const RefinementExecutor::Task& t = tasks[i];
    const WindowTuple& cand = *t.candidate;
    if (!t.probe_topic->any && !cand.topic.any) {
      // Theorem 4.1 kills the pair before any refinement work.
      light->push_back(i);
      continue;
    }
    if (t.probe->num_instances() != 1 || cand.tuple->num_instances() != 1) {
      // Multi-instance pairs enumerate a cross product; treat as heavy.
      heavy->push_back(i);
      continue;
    }
    eligible.push_back(i);
    for (int k = 0; k < d; ++k) {
      const TokenView va = t.probe->instance_token_view(0, k);
      const TokenView vb = cand.tuple->instance_token_view(0, k);
      len_a.push_back(va.len);
      len_b.push_back(vb.len);
      sig_a.push_back(va.sig);
      sig_b.push_back(vb.sig);
    }
  }
  if (eligible.empty()) {
    return;
  }
  SigFilterBatch batch;
  batch.num_pairs = eligible.size();
  batch.d = d;
  batch.len_a = len_a.data();
  batch.len_b = len_b.data();
  batch.sig_a = sig_a.data();
  batch.sig_b = sig_b.data();
  thread_local std::vector<uint64_t> survivors;
  survivors.assign((eligible.size() + 63) / 64, 0);
  const size_t survivor_count =
      SigFilterCandidates(batch, gamma, survivors.data());
  heavy->reserve(heavy->size() + survivor_count);
  light->reserve(light->size() + (eligible.size() - survivor_count));
  for (size_t j = 0; j < eligible.size(); ++j) {
    if ((survivors[j >> 6] >> (j & 63)) & 1) {
      heavy->push_back(eligible[j]);
    } else {
      light->push_back(eligible[j]);
    }
  }
}

}  // namespace

PairEvaluation RefinementExecutor::Evaluate(const Task& task,
                                            bool use_prunings,
                                            double gamma, double alpha) {
  const WindowTuple& cand = *task.candidate;
  if (use_prunings) {
    return EvaluatePair(*task.probe, *task.probe_topic, *cand.tuple,
                        cand.topic, gamma, alpha);
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
                             bool use_prunings, double gamma, double alpha,
                             std::vector<PairEvaluation>* evaluations) {
  const int64_t n = static_cast<int64_t>(tasks.size());
  evaluations->resize(tasks.size());
  if (n == 0) {
    return;
  }
  if (scheduler_ == nullptr) {
    for (int64_t i = 0; i < n; ++i) {
      (*evaluations)[i] = Evaluate(tasks[i], use_prunings, gamma, alpha);
    }
    return;
  }
  // Batched signature prefilter: one SoA popcount sweep over the candidate
  // list decides which tasks can reach token merges ("heavy") before any
  // fan-out, so workers are scheduled over verify-heavy shards while the
  // merge-free remainder ("light": topic-killed and signature-rejected
  // pairs) is swept in shards coarse enough to amortize dispatch. Every
  // task still runs the unchanged Evaluate, so results and stats are
  // bit-identical to the sequential loop regardless of placement.
  std::vector<int64_t> heavy;
  std::vector<int64_t> light;
  ClassifyTasks(tasks, gamma, &heavy, &light);
  const int64_t heavy_n = static_cast<int64_t>(heavy.size());
  const int64_t light_n = static_cast<int64_t>(light.size());
  // Contiguous shards, several per worker so an expensive stretch of pairs
  // (deep instance cross products) does not serialize the whole batch.
  // Light shards are 8x coarser: each task is just a popcount cascade.
  const int64_t shard_size = std::max<int64_t>(
      1, n / (static_cast<int64_t>(num_threads()) * 4));
  const int64_t light_shard_size = shard_size * 8;
  const int64_t heavy_shards = (heavy_n + shard_size - 1) / shard_size;
  const int64_t light_shards =
      (light_n + light_shard_size - 1) / light_shard_size;
  const auto eval_range = [&](const std::vector<int64_t>& index, int64_t begin,
                              int64_t end) {
    for (int64_t j = begin; j < end; ++j) {
      const int64_t i = index[j];
      (*evaluations)[i] = Evaluate(tasks[i], use_prunings, gamma, alpha);
    }
  };
  const auto run_shard = [&](int64_t shard) {
    if (shard < heavy_shards) {
      const int64_t begin = shard * shard_size;
      eval_range(heavy, begin, std::min(heavy_n, begin + shard_size));
    } else {
      const int64_t begin = (shard - heavy_shards) * light_shard_size;
      eval_range(light, begin, std::min(light_n, begin + light_shard_size));
    }
  };
  scheduler_->ParallelFor(ExecPhase::kRefine, heavy_shards + light_shards,
                          run_shard);
}

}  // namespace terids
