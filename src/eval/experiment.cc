#include "eval/experiment.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <unordered_set>

#include "er/similarity.h"
#include "er/topic.h"
#include "pivot/pivot_selector.h"
#include "repo/snapshot_writer.h"
#include "rules/rule_miner.h"
#include "stream/stream_driver.h"
#include "util/stopwatch.h"

namespace terids {

Experiment::Experiment(const DatasetProfile& profile,
                       const ExperimentParams& params)
    : profile_(profile), params_(params) {
  DataGenerator::Options gen;
  gen.scale = params.scale;
  gen.repo_ratio = params.eta;
  gen.seed = params.seed;
  dataset_ = DataGenerator::Generate(profile, gen);

  incomplete_a_ = DataGenerator::WithMissing(dataset_.source_a, params.xi,
                                             params.m, params.seed);
  incomplete_b_ = DataGenerator::WithMissing(dataset_.source_b, params.xi,
                                             params.m, params.seed + 1);

  // Offline phase on a pristine repository: pivot selection, rule mining.
  Repository pristine(dataset_.schema.get(), dataset_.dict.get());
  for (const Record& r : dataset_.repo_records) {
    TERIDS_CHECK(pristine.AddSample(r).ok());
  }
  {
    Stopwatch watch;
    PivotSelector selector(&pristine, PivotOptions{});
    pivots_ = selector.SelectAll();
    pivot_seconds_ = watch.ElapsedSeconds();
  }
  pristine.AttachPivots(pivots_);
  {
    Stopwatch watch;
    RuleMiner miner(&pristine, MinerOptions{});
    cdds_ = miner.MineCdds();
    mining_seconds_ = watch.ElapsedSeconds();
    dds_ = miner.MineDds();
    editing_ = miner.MineEditingRules();
  }
  ComputeEffectiveTruth();
}

double Experiment::gamma() const {
  return params_.rho * dataset_.schema->num_attributes();
}

size_t Experiment::ArrivalCap() const {
  const size_t total = dataset_.source_a.size() + dataset_.source_b.size();
  if (params_.max_arrivals <= 0) {
    return total;
  }
  return std::min(total, static_cast<size_t>(params_.max_arrivals));
}

void Experiment::ComputeEffectiveTruth() {
  // Replay the *complete* sources through the same interleaving and window
  // semantics the pipelines use; a pair belongs to the effective truth iff
  // the two records are co-windowed at the later one's arrival, at least
  // one side is topical, and their complete similarity exceeds gamma. This
  // is exactly the paper's Equation-(2)-based ground truth (Section 6.1):
  // what a perfect imputer + exact matcher would report. F-scores therefore
  // measure the distortion introduced by imputation and pruning.
  TopicQuery topic(*dataset_.dict,
                   std::vector<std::string>(
                       dataset_.topic_keywords.begin(),
                       dataset_.topic_keywords.begin() +
                           std::min<size_t>(params_.topics_in_query,
                                            dataset_.topic_keywords.size())));

  std::unordered_map<int64_t, const Record*> by_rid;
  for (const Record& r : dataset_.source_a) by_rid[r.rid] = &r;
  for (const Record& r : dataset_.source_b) by_rid[r.rid] = &r;

  StreamDriver driver({dataset_.source_a, dataset_.source_b});
  const size_t cap = ArrivalCap();
  std::vector<std::deque<int64_t>> windows(2);
  const double g = gamma();
  effective_truth_.clear();

  auto is_topical = [&](const Record& r) {
    for (const AttrValue& v : r.values) {
      if (!v.missing && topic.Matches(v.tokens)) {
        return true;
      }
    }
    return false;
  };

  for (size_t i = 0; i < cap && driver.HasNext(); ++i) {
    const Record arrived = driver.Next();
    const int other = 1 - arrived.stream_id;
    for (int64_t rid : windows[other]) {
      const Record& partner = *by_rid.at(rid);
      if (!is_topical(arrived) && !is_topical(partner)) {
        continue;
      }
      if (RecordSimilarity(arrived, partner) > g) {
        GroundTruthPair pair;
        pair.rid_a = std::min(arrived.rid, rid);
        pair.rid_b = std::max(arrived.rid, rid);
        effective_truth_.push_back(pair);
      }
    }
    windows[arrived.stream_id].push_back(arrived.rid);
    if (static_cast<int>(windows[arrived.stream_id].size()) > params_.w) {
      windows[arrived.stream_id].pop_front();
    }
  }
}

std::unique_ptr<Repository> Experiment::BuildRepository() const {
  return BuildRepository(params_.repo_backend);
}

std::unique_ptr<Repository> Experiment::BuildRepository(
    RepoBackend backend) const {
  auto repo =
      std::make_unique<Repository>(dataset_.schema.get(), dataset_.dict.get());
  for (const Record& r : dataset_.repo_records) {
    TERIDS_CHECK(repo->AddSample(r).ok());
  }
  repo->AttachPivots(pivots_);
  if (backend == RepoBackend::kInMemory) {
    return repo;
  }
  // Snapshot backend: serialize the in-memory build once, reopen it
  // read-only via mmap, and discard both the oracle and the file (the
  // mapping keeps the pages alive on POSIX).
  const std::string path = UniqueSnapshotPath("terids-snap");
  TERIDS_CHECK(WriteRepositorySnapshot(*repo, path).ok());
  Result<std::unique_ptr<Repository>> reopened = Repository::OpenSnapshot(
      dataset_.schema.get(), dataset_.dict.get(), path);
  std::remove(path.c_str());
  TERIDS_CHECK(reopened.ok());
  return std::move(reopened).value();
}

EngineConfig Experiment::MakeConfig() const {
  EngineConfig config;
  config.keywords.assign(
      dataset_.topic_keywords.begin(),
      dataset_.topic_keywords.begin() +
          std::min<size_t>(params_.topics_in_query,
                           dataset_.topic_keywords.size()));
  config.gamma = gamma();
  config.alpha = params_.alpha;
  config.window_size = params_.w;
  config.max_instances = params_.max_instances;
  config.max_candidates_per_attr = params_.max_candidates_per_attr;
  config.batch_size = params_.batch_size;
  config.repo_backend = params_.repo_backend;
  return config;
}

PipelineRun Experiment::Run(PipelineKind kind) {
  return Run(kind, MakeConfig());
}

PipelineRun Experiment::Run(PipelineKind kind, const EngineConfig& config) {
  TERIDS_CHECK(config.batch_size >= 1);
  std::unique_ptr<Repository> repo = BuildRepository();
  std::unique_ptr<PipelineBase> pipeline = MakePipeline(
      kind, repo.get(), config, /*num_streams=*/2, cdds_, dds_, editing_);
  TERIDS_CHECK(pipeline != nullptr);

  PipelineRun run;
  run.name = pipeline->name();

  StreamDriver driver({incomplete_a_, incomplete_b_});
  const size_t cap = ArrivalCap();
  std::vector<MatchPair> all_matches;
  Stopwatch total_watch;
  // ProcessStream replays every arrival through ProcessArrival, emitting
  // outcomes per NextBatch chunk.
  run.arrivals = pipeline->ProcessStream(
      &driver, cap, static_cast<size_t>(config.batch_size),
      [&](ArrivalOutcome&& outcome) {
        run.total_cost.Add(outcome.cost);
        all_matches.insert(all_matches.end(), outcome.new_matches.begin(),
                           outcome.new_matches.end());
      });
  run.total_seconds = total_watch.ElapsedSeconds();
  run.avg_arrival_seconds =
      run.arrivals > 0 ? run.total_seconds / static_cast<double>(run.arrivals)
                       : 0.0;
  run.stats = pipeline->cumulative_stats();
  run.accuracy = ComputeFScore(all_matches, effective_truth_);
  run.final_result_size = pipeline->results().size();
  return run;
}

}  // namespace terids
