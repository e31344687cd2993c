#ifndef TERIDS_CORE_BASELINE_ENGINES_H_
#define TERIDS_CORE_BASELINE_ENGINES_H_

#include <vector>

#include "core/pipeline.h"
#include "imputation/value_neighborhoods.h"
#include "index/cdd_index.h"
#include "rules/rule.h"

namespace terids {

/// `Ij+GER`: CDD-index-assisted rule selection and pruned window matching,
/// but *no index join* — sample retrieval is a linear repository scan per
/// selected rule (Section 6.1). The gap between this baseline and
/// TerIdsEngine isolates the benefit of the 3-way join.
class IjGerEngine : public PipelineBase {
 public:
  IjGerEngine(Repository* repo, EngineConfig config, int num_streams,
              std::vector<CddRule> rules);

 protected:
  std::vector<ImputedTuple::ImputedAttr> Impute(const Record& r,
                                                CostBreakdown* cost) override;

 private:
  std::vector<CddRule> rules_;
  CddIndex cdd_index_;
  ValueNeighborhoods neighborhoods_;
  CandidateCounter counts_;
};

/// The linear baselines `CDD+ER`, `DD+ER`, `er+ER`: rule-based imputation
/// with full rule and repository scans, followed by a linear window scan
/// with exact probability computation (no indexes, no synopsis, no pruning
/// theorems). This is also the paper's "straightforward method".
class LinearRulePipeline : public PipelineBase {
 public:
  LinearRulePipeline(Repository* repo, EngineConfig config, int num_streams,
                     std::vector<CddRule> rules, std::string name);
};

/// `con+ER`: constraint-based imputation from the stream itself (no
/// repository access) followed by a linear window scan.
class ConstraintPipeline : public PipelineBase {
 public:
  ConstraintPipeline(Repository* repo, EngineConfig config, int num_streams);
};

}  // namespace terids

#endif  // TERIDS_CORE_BASELINE_ENGINES_H_
