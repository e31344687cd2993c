#include "core/baseline_engines.h"

#include "core/terids_engine.h"
#include "imputation/constraint_imputer.h"
#include "imputation/rule_based_imputer.h"
#include "util/stopwatch.h"

namespace terids {

// ---------------------------------------------------------------------------
// IjGerEngine
// ---------------------------------------------------------------------------

IjGerEngine::IjGerEngine(Repository* repo, EngineConfig config,
                         int num_streams, std::vector<CddRule> rules)
    : PipelineBase(repo, std::move(config), num_streams, /*pruned=*/true,
                   "Ij+GER"),
      rules_(std::move(rules)),
      cdd_index_(repo, &rules_),
      neighborhoods_(repo) {}

std::vector<ImputedTuple::ImputedAttr> IjGerEngine::Impute(
    const Record& r, CostBreakdown* cost) {
  std::vector<ImputedTuple::ImputedAttr> result;
  for (int j : r.MissingAttributes()) {
    std::vector<int> selected;
    {
      ScopedTimer timer(cost ? &cost->cdd_select_seconds : nullptr);
      selected = cdd_index_.SelectRules(r, j);
    }
    {
      ScopedTimer timer(cost ? &cost->impute_seconds : nullptr);
      counts_.Fit(repo_->domain_size(j));
      // Linear sample retrieval (no postings join), but candidate values
      // still come from the cached neighbor lists — this pipeline has
      // the indexes, it just does not traverse them simultaneously.
      for (int rule_idx : selected) {
        const CddRule& rule = rules_[rule_idx];
        for (size_t i = 0; i < repo_->num_samples(); ++i) {
          if (rule.DeterminantsSatisfied(r, *repo_, i)) {
            neighborhoods_.AccumulateRange(j, repo_->sample_value_id(i, j),
                                           rule.dep_interval, &counts_);
          }
        }
      }
    }
    std::vector<ImputedTuple::Candidate> cands =
        FinalizeCandidates(&counts_, config_.max_candidates_per_attr);
    if (!cands.empty()) {
      ImputedTuple::ImputedAttr ia;
      ia.attr = j;
      ia.candidates = std::move(cands);
      result.push_back(std::move(ia));
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// LinearRulePipeline
// ---------------------------------------------------------------------------

LinearRulePipeline::LinearRulePipeline(Repository* repo, EngineConfig config,
                                       int num_streams,
                                       std::vector<CddRule> rules,
                                       std::string name)
    : PipelineBase(repo, std::move(config), num_streams, /*pruned=*/false,
                   std::move(name)) {
  imputer_ = std::make_unique<RuleBasedImputer>(
      repo, std::move(rules), config_.max_candidates_per_attr);
}

// ---------------------------------------------------------------------------
// ConstraintPipeline
// ---------------------------------------------------------------------------

ConstraintPipeline::ConstraintPipeline(Repository* repo, EngineConfig config,
                                       int num_streams)
    : PipelineBase(repo, std::move(config), num_streams, /*pruned=*/false,
                   "con+ER") {
  imputer_ =
      std::make_unique<ConstraintImputer>(repo, config_.window_size);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<PipelineBase> MakePipeline(
    PipelineKind kind, Repository* repo, const EngineConfig& config,
    int num_streams, const std::vector<CddRule>& cdds,
    const std::vector<CddRule>& dds, const std::vector<CddRule>& editing) {
  switch (kind) {
    case PipelineKind::kTerIds:
      return std::make_unique<TerIdsEngine>(repo, config, num_streams, cdds);
    case PipelineKind::kIjGer:
      return std::make_unique<IjGerEngine>(repo, config, num_streams, cdds);
    case PipelineKind::kCddEr:
      return std::make_unique<LinearRulePipeline>(repo, config, num_streams,
                                                  cdds, "CDD+ER");
    case PipelineKind::kDdEr:
      return std::make_unique<LinearRulePipeline>(repo, config, num_streams,
                                                  dds, "DD+ER");
    case PipelineKind::kEditingEr:
      return std::make_unique<LinearRulePipeline>(repo, config, num_streams,
                                                  editing, "er+ER");
    case PipelineKind::kConstraintEr:
      return std::make_unique<ConstraintPipeline>(repo, config, num_streams);
  }
  return nullptr;
}

}  // namespace terids
