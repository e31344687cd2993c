#include "core/pipeline.h"

#include <algorithm>
#include <utility>

#include "er/probability.h"
#include "util/stopwatch.h"

namespace terids {

PipelineBase::PipelineBase(Repository* repo, EngineConfig config,
                           int num_streams, bool pruned, std::string name)
    : repo_(repo),
      config_(std::move(config)),
      topic_(repo->dict(), config_.keywords),
      name_(std::move(name)) {
  TERIDS_CHECK(repo != nullptr);
  TERIDS_CHECK(repo->has_pivots());
  TERIDS_CHECK(num_streams >= 2);
  TERIDS_CHECK(config_.batch_size >= 1);
  TERIDS_CHECK(config_.max_candidates_per_attr >= 1);
  windows_.reserve(num_streams);
  for (int i = 0; i < num_streams; ++i) {
    windows_.emplace_back(config_.window_size);
  }
  if (pruned) {
    window_rows_ = std::make_unique<WindowRows>();
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

std::vector<const WindowTuple*> PipelineBase::LinearCandidates(
    const WindowTuple& probe) const {
  std::vector<const WindowTuple*> out;
  for (size_t s = 0; s < windows_.size(); ++s) {
    if (static_cast<int>(s) == probe.stream_id()) {
      continue;
    }
    for (const auto& wt : windows_[s].tuples()) {
      out.push_back(wt.get());
    }
  }
  return out;
}

// --- Phases ----------------------------------------------------------------

void PipelineBase::ImputePhase(ArrivalContext* ctx) {
  const Record& r = ctx->record;
  TERIDS_CHECK(r.stream_id >= 0 &&
               r.stream_id < static_cast<int>(windows_.size()));
  ctx->out.timestamp = r.timestamp;
  if (imputer_ != nullptr) {
    imputer_->OnArrival(r);
  }
  if (r.IsComplete()) {
    ctx->tuple = std::make_shared<const ImputedTuple>(
        ImputedTuple::FromComplete(r, repo_));
  } else {
    std::vector<ImputedTuple::ImputedAttr> imputed =
        Impute(r, &ctx->out.cost);
    ctx->tuple = std::make_shared<const ImputedTuple>(
        ImputedTuple::FromImputation(r, repo_, std::move(imputed),
                                     config_.max_instances));
  }
  ctx->wt = std::make_shared<WindowTuple>();
  ctx->wt->tuple = ctx->tuple;
  ctx->wt->topic = topic_.Classify(*ctx->tuple);
}

void PipelineBase::CandidatePhase(ArrivalContext* ctx) {
  if (window_rows_ == nullptr) {
    ScopedTimer timer(&ctx->out.cost.candidate_seconds);
    ctx->candidates = LinearCandidates(*ctx->wt);
    return;
  }
  WindowRows::CandidateResult scan;
  {
    ScopedTimer timer(&ctx->out.cost.candidate_seconds);
    scan = window_rows_->Candidates(*ctx->wt, !topic_.IsUnconstrained());
    // Tuple-level Theorem 4.1 kills count in this arrival's pair stats.
    ctx->out.stats.total_pairs += scan.topic_pruned;
    ctx->out.stats.topic_pruned += scan.topic_pruned;
  }
  if (scan.slots.empty()) {
    return;
  }
  // The batched pair cascade over the candidates' rows, charged to
  // refinement: its rejects fold into this arrival's stats here, and only
  // the pairs it passes stay candidates for RefinePair. It runs before
  // MaintainPhase, so no later arrival has reused a candidate's slot yet.
  ScopedTimer timer(&ctx->out.cost.refine_seconds);
  EvaluateCandidates(ctx->tuple->row_layout(), ctx->tuple->row(),
                     ctx->wt->topic.any, window_rows_->rows(),
                     scan.slots.data(), scan.slots.size(), config_.gamma,
                     config_.alpha, &kernel_evals_, &kernel_passed_);
  ctx->candidates.clear();
  ctx->candidates.reserve(kernel_passed_.size());
  size_t next = 0;
  for (size_t i = 0; i < scan.candidates.size(); ++i) {
    const WindowTuple* cand = scan.candidates[i];
    if (next < kernel_passed_.size() && kernel_passed_[next] == i) {
      ctx->candidates.push_back(cand);
      ++next;
    } else {
      ApplyEvaluation(ctx, cand, kernel_evals_[i]);
    }
  }
}

void PipelineBase::ApplyEvaluation(ArrivalContext* ctx,
                                   const WindowTuple* cand,
                                   const PairEvaluation& eval) {
  ctx->out.stats.Record(eval.outcome);
  ctx->out.stats.sig_probes += eval.sig_probes;
  ctx->out.stats.sig_saturated += eval.sig_saturated;
  ctx->out.stats.sig_rejects += eval.sig_rejects;
  if (!eval.matched()) {
    return;
  }
  const int64_t rid = ctx->tuple->rid();
  matches_.Add(rid, cand->rid(), eval.probability);
  MatchPair pair;
  pair.rid_a = std::min(rid, cand->rid());
  pair.rid_b = std::max(rid, cand->rid());
  pair.probability = eval.probability;
  ctx->out.new_matches.push_back(pair);
}

void PipelineBase::RefinePhase(ArrivalContext* ctx) {
  ScopedTimer timer(&ctx->out.cost.refine_seconds);
  const ImputedTuple& probe = *ctx->tuple;
  const TopicQuery::TupleTopic& probe_topic = ctx->wt->topic;
  for (const WindowTuple* cand : ctx->candidates) {
    PairEvaluation eval;
    if (window_rows_ != nullptr) {
      // The batched cascade passed this pair: refinement starts at
      // Theorem 4.4.
      eval = RefinePair(probe, probe_topic, *cand->tuple, cand->topic,
                        config_.gamma, config_.alpha);
    } else {
      // Unpruned baselines: every pair gets the plain-merge exact
      // probability.
      eval.probability = ExactProbability(probe, probe_topic, *cand->tuple,
                                          cand->topic, config_.gamma);
      eval.outcome = eval.probability > config_.alpha ? PairOutcome::kMatched
                                                      : PairOutcome::kRefuted;
    }
    ApplyEvaluation(ctx, cand, eval);
  }
}

void PipelineBase::MaintainPhase(ArrivalContext* ctx) {
  ScopedTimer timer(&ctx->out.cost.maintain_seconds);
  const std::shared_ptr<WindowTuple> evicted =
      windows_[ctx->record.stream_id].Push(ctx->wt);
  if (window_rows_ != nullptr) {
    window_rows_->Insert(ctx->wt.get());
    if (evicted != nullptr) {
      TERIDS_CHECK(window_rows_->Remove(evicted.get()));
    }
  }
  if (evicted != nullptr) {
    matches_.RemoveAllWith(evicted->rid());
    if (imputer_ != nullptr) {
      imputer_->OnEvict(evicted->tuple->base());
    }
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
