#ifndef TERIDS_CORE_TERIDS_ENGINE_H_
#define TERIDS_CORE_TERIDS_ENGINE_H_

#include <cstdint>
#include <vector>

#include "core/pipeline.h"
#include "imputation/value_neighborhoods.h"
#include "index/cdd_index.h"
#include "index/dr_index.h"
#include "rules/rule.h"

namespace terids {

/// The full TER-iDS processing engine (Algorithm 2, Section 5.3).
///
/// Offline (construction): pivot tables are assumed attached to the
/// repository; the engine builds the CDD-index I_j over the mined CDD rules
/// and the DR-index I_R over the repository.
///
/// Online (per arrival): the index join. For each missing attribute of the
/// arriving tuple, the CDD-index selects compatible rules (constant
/// constraints verified against the probe coordinates); each selected rule
/// is turned into per-attribute coordinate bands that drive a pruned
/// DR-index retrieval of candidate samples; exact determinant verification
/// and candidate-value accumulation (Equation 4) complete the imputation.
/// The imputed tuple then probes the ER-grid, whose cell-level topic and
/// distance bounds feed the pair-level pruning cascade (Theorems 4.1-4.4).
class TerIdsEngine : public PipelineBase {
 public:
  /// The engine copies `rules` (it owns the vector its CDD-index points
  /// into). `dynamic_repository` enables the Section 5.5 extension hooks.
  TerIdsEngine(Repository* repo, EngineConfig config, int num_streams,
               std::vector<CddRule> rules);

  /// Dynamic repository maintenance (Section 5.5): adds a batch of new
  /// complete tuples to R, extends the DR-index incrementally, widens or
  /// adds CDD rules via the miner's absorb step, and refreshes the
  /// CDD-index entries of changed rules. The neighbour lists of an
  /// attribute whose domain grew are rebuilt on their next use; all other
  /// lists stay cached.
  Status AbsorbRepositoryBatch(const std::vector<Record>& batch);

  const CddIndex& cdd_index() const { return cdd_index_; }
  const DrIndex& dr_index() const { return dr_index_; }
  const std::vector<CddRule>& rules() const { return rules_; }

 protected:
  std::vector<ImputedTuple::ImputedAttr> Impute(const Record& r,
                                                const ProbeCoords& pc,
                                                CostBreakdown* cost) override;

 private:
  std::vector<AttrBand> BandsForRule(const CddRule& rule,
                                     const ProbeCoords& pc) const;

  std::vector<CddRule> rules_;
  CddIndex cdd_index_;
  DrIndex dr_index_;
  ValueNeighborhoods neighborhoods_;

  // Index-join scratch, reused across Impute calls. Like neighborhoods_ it
  // is owned by the single ingest owner of the pipeline (DESIGN.md §5).
  /// One probe-to-domain-value distance; valid iff `epoch` equals the
  /// current Impute call's memo_epoch_ (0 is never current).
  struct MemoEntry {
    double dist = 0.0;
    uint32_t epoch = 0;
  };
  /// dist_memo_[attr][vid], grown lazily with dom(attr).
  std::vector<std::vector<MemoEntry>> dist_memo_;
  uint32_t memo_epoch_ = 0;
  /// Equation-4 votes of the missing attribute being imputed.
  CandidateCounter counts_;
};

}  // namespace terids

#endif  // TERIDS_CORE_TERIDS_ENGINE_H_
