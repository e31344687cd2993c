#include "core/pipeline.h"

#include <algorithm>
#include <optional>
#include <tuple>
#include <utility>

#include "er/probability.h"
#include "util/stopwatch.h"

namespace terids {

PipelineBase::PipelineBase(Repository* repo, EngineConfig config,
                           int num_streams, bool pruned, std::string name)
    : repo_(repo),
      config_(std::move(config)),
      topic_(repo->dict(), config_.keywords),
      name_(std::move(name)),
      pruned_(pruned) {
  TERIDS_CHECK(repo != nullptr);
  TERIDS_CHECK(repo->has_pivots());
  TERIDS_CHECK(num_streams >= 2);
  TERIDS_CHECK(config_.batch_size >= 1);
  TERIDS_CHECK(config_.max_candidates_per_attr >= 1);
  windows_.reserve(num_streams);
  for (int i = 0; i < num_streams; ++i) {
    windows_.emplace_back(config_.window_size);
  }
}

const SlidingWindow& PipelineBase::window(int stream_id) const {
  TERIDS_CHECK(stream_id >= 0 &&
               stream_id < static_cast<int>(windows_.size()));
  return windows_[stream_id];
}

std::vector<ImputedTuple::ImputedAttr> PipelineBase::Impute(
    const Record& r, CostBreakdown* cost) {
  TERIDS_CHECK(imputer_ != nullptr);
  return imputer_->ImputeRecord(r, cost);
}

// --- Phases ----------------------------------------------------------------

void PipelineBase::ImputePhase(ArrivalContext* ctx) {
  const Record& r = ctx->record;
  TERIDS_CHECK(r.stream_id >= 0 &&
               r.stream_id < static_cast<int>(windows_.size()));
  // A second live tuple with this rid would pair with itself or lose its
  // pairs when the first one expires.
  const bool rid_not_live = live_rids_.insert(r.rid).second;
  TERIDS_CHECK(rid_not_live);
  ctx->out.timestamp = r.timestamp;
  if (imputer_ != nullptr) {
    imputer_->OnArrival(r);
  }
  if (r.IsComplete()) {
    ctx->wt.emplace(WindowTuple{ImputedTuple::FromComplete(r, repo_), {}});
  } else {
    std::vector<ImputedTuple::ImputedAttr> imputed =
        Impute(r, &ctx->out.cost);
    ctx->wt.emplace(WindowTuple{
        ImputedTuple::FromImputation(r, repo_, std::move(imputed),
                                     config_.max_instances),
        {}});
  }
  ctx->wt->topic = topic_.Classify(ctx->wt->tuple);
}

void PipelineBase::CandidatePhase(ArrivalContext* ctx) {
  const WindowTuple& probe = *ctx->wt;
  for (const SlidingWindow& window : windows_) {
    if (&window == &windows_[probe.stream_id()]) {
      continue;
    }
    {
      ScopedTimer timer(&ctx->out.cost.candidate_seconds);
      scan_slots_.clear();
      // The unpruned baselines take every slot. On the pruned path the
      // tuple-level Theorem 4.1 kills count in this arrival's pair stats.
      const uint64_t topic_pruned =
          window.CandidateSlots(probe.topic.any || !pruned_, &scan_slots_);
      ctx->out.stats.total_pairs += topic_pruned;
      ctx->out.stats.topic_pruned += topic_pruned;
      if (!pruned_) {
        for (uint32_t slot : scan_slots_) {
          ctx->candidates.push_back(&window.at(slot));
        }
        continue;
      }
    }
    if (scan_slots_.empty()) {
      continue;
    }
    // The batched pair cascade over the window's rows, charged to
    // refinement: its rejects fold into this arrival's stats here, and
    // only the pairs it passes stay candidates for RefinePair.
    ScopedTimer timer(&ctx->out.cost.refine_seconds);
    EvaluateCandidates(probe.tuple.row_layout(), probe.tuple.row(),
                       probe.topic.any, window.rows(), scan_slots_.data(),
                       scan_slots_.size(), config_.gamma, config_.alpha,
                       &kernel_evals_, &kernel_passed_);
    size_t next = 0;
    for (size_t i = 0; i < scan_slots_.size(); ++i) {
      const WindowTuple& cand = window.at(scan_slots_[i]);
      if (next < kernel_passed_.size() && kernel_passed_[next] == i) {
        ctx->candidates.push_back(&cand);
        ++next;
      } else {
        ApplyEvaluation(ctx, cand, kernel_evals_[i]);
      }
    }
  }
}

void PipelineBase::ApplyEvaluation(ArrivalContext* ctx,
                                   const WindowTuple& cand,
                                   const PairEvaluation& eval) {
  ctx->out.stats.Record(eval.outcome);
  ctx->out.stats.sig_probes += eval.sig_probes;
  ctx->out.stats.sig_saturated += eval.sig_saturated;
  ctx->out.stats.sig_rejects += eval.sig_rejects;
  if (!eval.matched()) {
    return;
  }
  const int64_t rid = ctx->wt->rid();
  matches_.Add(rid, cand.rid(), eval.probability);
  MatchPair pair;
  pair.rid_a = std::min(rid, cand.rid());
  pair.rid_b = std::max(rid, cand.rid());
  pair.probability = eval.probability;
  ctx->out.new_matches.push_back(pair);
}

void PipelineBase::RefinePhase(ArrivalContext* ctx) {
  ScopedTimer timer(&ctx->out.cost.refine_seconds);
  const WindowTuple& probe = *ctx->wt;
  for (const WindowTuple* cand : ctx->candidates) {
    PairEvaluation eval;
    if (pruned_) {
      // The batched cascade passed this pair: refinement starts at
      // Theorem 4.4.
      eval = RefinePair(probe.tuple, probe.topic, cand->tuple, cand->topic,
                        config_.gamma, config_.alpha);
    } else {
      // Unpruned baselines: every pair gets the plain-merge exact
      // probability.
      eval.probability = ExactProbability(probe.tuple, probe.topic,
                                          cand->tuple, cand->topic,
                                          config_.gamma);
      eval.outcome = eval.probability > config_.alpha ? PairOutcome::kMatched
                                                      : PairOutcome::kRefuted;
    }
    ApplyEvaluation(ctx, *cand, eval);
  }
}

void PipelineBase::MaintainPhase(ArrivalContext* ctx) {
  ScopedTimer timer(&ctx->out.cost.maintain_seconds);
  const std::optional<WindowTuple> evicted =
      windows_[ctx->record.stream_id].Push(std::move(*ctx->wt));
  if (!evicted.has_value()) {
    return;
  }
  const int64_t rid = evicted->rid();
  live_rids_.erase(rid);
  matches_.RemoveAllWith(rid);
  if (imputer_ != nullptr) {
    imputer_->OnEvict(evicted->tuple.base());
  }
}

// --- Operators -------------------------------------------------------------

ArrivalOutcome PipelineBase::ProcessArrival(const Record& r) {
  ArrivalContext ctx(r);
  ImputePhase(&ctx);
  {
    ScopedTimer timer(&ctx.out.cost.er_seconds);
    CandidatePhase(&ctx);
    RefinePhase(&ctx);
    // The order contract of ArrivalOutcome::new_matches.
    std::sort(ctx.out.new_matches.begin(), ctx.out.new_matches.end(),
              [](const MatchPair& a, const MatchPair& b) {
                return std::tie(a.rid_a, a.rid_b) < std::tie(b.rid_a, b.rid_b);
              });
  }
  cum_stats_.Add(ctx.out.stats);
  MaintainPhase(&ctx);
  return std::move(ctx.out);
}

size_t PipelineBase::ProcessStream(StreamDriver* driver, size_t max_arrivals,
                                   size_t batch_size,
                                   const OutcomeSink& sink) {
  TERIDS_CHECK(driver != nullptr);
  TERIDS_CHECK(batch_size >= 1);
  size_t processed = 0;
  while (processed < max_arrivals && driver->HasNext()) {
    const std::vector<Record> batch =
        driver->NextBatch(std::min(batch_size, max_arrivals - processed));
    std::vector<ArrivalOutcome> outcomes;
    outcomes.reserve(batch.size());
    for (const Record& r : batch) {
      outcomes.push_back(ProcessArrival(r));
    }
    for (ArrivalOutcome& outcome : outcomes) {
      sink(std::move(outcome));
      ++processed;
    }
  }
  return processed;
}

}  // namespace terids
