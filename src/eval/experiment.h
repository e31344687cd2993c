#ifndef TERIDS_EVAL_EXPERIMENT_H_
#define TERIDS_EVAL_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "datagen/profiles.h"
#include "er/pruning.h"
#include "eval/cost_breakdown.h"
#include "eval/metrics.h"
#include "repo/repository.h"
#include "rules/rule.h"

namespace terids {

/// The evaluation parameters of Table 5. Defaults are the paper's bold
/// defaults; sizes are scaled via `scale` so the full suite runs on one
/// core (see DESIGN.md §4 and EXPERIMENTS.md).
struct ExperimentParams {
  double alpha = 0.5;  // probabilistic threshold
  double rho = 0.5;    // gamma = rho * d
  double xi = 0.3;     // missing rate
  double eta = 0.3;    // |R| / stream size
  int w = 200;         // sliding-window size (paper default 1000, scaled)
  int m = 1;           // missing attributes per incomplete tuple
  double scale = 0.1;  // dataset size scale factor
  int topics_in_query = 1;
  int max_arrivals = 0;  // 0 = consume both sources fully
  uint64_t seed = 20210620;
  int max_instances = 16;
  int max_candidates_per_attr = 8;
  /// Arrivals per ProcessStream chunk (1 = each outcome is emitted as soon
  /// as it is processed). Results are identical for every value.
  int batch_size = 1;
  /// Repository storage backend each Run()'s fresh repository uses. With
  /// kMmapSnapshot, BuildRepository serializes the in-memory build into a
  /// temporary snapshot file and reopens it via mmap — results are
  /// bit-identical to kInMemory (the equivalence sweep enforces it).
  RepoBackend repo_backend = RepoBackend::kInMemory;
};

/// One pipeline's measured run.
struct PipelineRun {
  std::string name;
  size_t arrivals = 0;
  double total_seconds = 0.0;
  double avg_arrival_seconds = 0.0;
  CostBreakdown total_cost;
  PruneStats stats;
  PrecisionRecall accuracy;
  size_t final_result_size = 0;
};

/// Builds one dataset + repository + rules under fixed parameters and runs
/// any of the six pipelines over identical arrival sequences. All offline
/// artifacts (pivots, rule sets, effective ground truth) are computed once
/// and shared; each Run() gets a fresh repository so pipelines cannot
/// interfere (the constraint imputer registers stream values into domains).
class Experiment {
 public:
  Experiment(const DatasetProfile& profile, const ExperimentParams& params);

  /// Replays the arrival sequence through the pipeline's ProcessStream in
  /// chunks of params().batch_size arrivals.
  PipelineRun Run(PipelineKind kind);
  /// Same run under an explicit EngineConfig (start from MakeConfig() and
  /// tweak); dataset, rules, and ground truth are shared, so knob benches
  /// can sweep execution settings without rebuilding the experiment.
  PipelineRun Run(PipelineKind kind, const EngineConfig& config);

  const GeneratedDataset& dataset() const { return dataset_; }
  const ExperimentParams& params() const { return params_; }
  /// The incomplete arrival sources Run() streams (post-WithMissing), so
  /// benches and tests can drive a custom StreamDriver over the same
  /// content.
  const std::vector<Record>& incomplete_a() const { return incomplete_a_; }
  const std::vector<Record>& incomplete_b() const { return incomplete_b_; }
  double gamma() const;
  const std::vector<CddRule>& cdds() const { return cdds_; }
  const std::vector<CddRule>& dds() const { return dds_; }
  const std::vector<CddRule>& editing_rules() const { return editing_; }
  /// Pairs a perfect topic-aware matcher over complete data would report
  /// within the experiment's windows (the F-score denominator).
  const std::vector<GroundTruthPair>& effective_truth() const {
    return effective_truth_;
  }

  /// Offline costs (Figures 11 and 12).
  double pivot_selection_seconds() const { return pivot_seconds_; }
  double rule_mining_seconds() const { return mining_seconds_; }

  /// Builds a fresh repository with pivots attached, on the backend
  /// params().repo_backend selects (public so ablation benches can
  /// construct custom engines).
  std::unique_ptr<Repository> BuildRepository() const;
  /// Same, with an explicit backend override (backend-comparison benches
  /// and the storage equivalence sweep).
  std::unique_ptr<Repository> BuildRepository(RepoBackend backend) const;
  EngineConfig MakeConfig() const;

 private:
  void ComputeEffectiveTruth();
  size_t ArrivalCap() const;

  DatasetProfile profile_;
  ExperimentParams params_;
  GeneratedDataset dataset_;
  std::vector<Record> incomplete_a_;
  std::vector<Record> incomplete_b_;
  std::vector<AttributePivots> pivots_;
  std::vector<CddRule> cdds_;
  std::vector<CddRule> dds_;
  std::vector<CddRule> editing_;
  std::vector<GroundTruthPair> effective_truth_;
  double pivot_seconds_ = 0.0;
  double mining_seconds_ = 0.0;
};

}  // namespace terids

#endif  // TERIDS_EVAL_EXPERIMENT_H_
