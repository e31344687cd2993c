#ifndef TERIDS_CORE_TERIDS_ENGINE_H_
#define TERIDS_CORE_TERIDS_ENGINE_H_

#include <cstdint>
#include <vector>

#include "core/pipeline.h"
#include "imputation/value_neighborhoods.h"
#include "index/cdd_index.h"
#include "rules/rule.h"

namespace terids {

/// The full TER-iDS processing engine (Algorithm 2, Section 5.3).
///
/// Offline (construction): pivot tables are assumed attached to the
/// repository; the engine lists the mined CDD rules in the CDD-index I_j.
///
/// Online (per arrival): the index join. For each missing attribute of the
/// arriving tuple, the CDD-index selects the applicable rules (constant
/// constraints matched against the probe's interned values). A postings join
/// then finds, per selected rule, exactly the repository samples that
/// satisfy its determinants (DESIGN.md §5): a constant reads the samples
/// carrying that value; an interval below distance 1 walks the probe's
/// token-sharing values, tests each value's distance once, and expands the
/// values inside the interval to their samples; the other determinants are
/// checked per sample. Only a rule whose determinants are all intervals
/// reaching 1.0 scans every sample. Each satisfying sample votes its
/// candidate values (Equation 4). The imputed tuple's candidates then come
/// from the other streams' windows (the engine's G_ER, DESIGN.md §7), and
/// the pair-level cascade (Theorems 4.1-4.4) decides them.
class TerIdsEngine : public PipelineBase {
 public:
  /// The engine copies `rules` (it owns the vector its CDD-index points
  /// into).
  TerIdsEngine(Repository* repo, EngineConfig config, int num_streams,
               std::vector<CddRule> rules);

  /// Dynamic repository maintenance (Section 5.5): adds a batch of new
  /// complete tuples to R up to the first one AddSample rejects, then widens
  /// every rule whose determinants a new sample meets with an earlier one
  /// but whose dependent interval the pair breaks, found by the determinant
  /// join with the new sample as the probe (DESIGN.md §5).
  Status AbsorbRepositoryBatch(const std::vector<Record>& batch);

  /// How often each path of Impute's determinant join ran: one count per
  /// selected rule, by the determinant the rule's join started from.
  struct JoinPaths {
    uint64_t constant = 0;  // a constant: that value's sample postings
    uint64_t interval = 0;  // an interval below 1: token-sharing values
    uint64_t tokenless_probe = 0;  // of `interval`: the probe had no token
    uint64_t scan = 0;  // every determinant reaches 1.0: all samples
  };

  const CddIndex& cdd_index() const { return cdd_index_; }
  const std::vector<CddRule>& rules() const { return rules_; }
  const JoinPaths& join_paths() const { return join_paths_; }

 protected:
  std::vector<ImputedTuple::ImputedAttr> Impute(const Record& r,
                                                CostBreakdown* cost) override;

 private:
  /// Extends the sample postings to every current repository sample.
  void PostNewSamples();
  /// Starts a new probe, forgetting the previous probe's memos.
  void BeginProbe();
  /// Memoised JaccardDistance(r[attr], dom(attr)[vid]) of this probe.
  double ProbeDistance(const Record& r, int attr, ValueId vid);
  /// This probe's token-sharing values of r[attr], computed once.
  const std::vector<ValueId>& ProbeSharing(const Record& r, int attr);
  /// Replaces hits_ with the samples satisfying `rule`'s determinants
  /// against r, each once, counting the path in `paths`. The caller checks
  /// the probe side of constants.
  void JoinDeterminants(const Record& r, const CddRule& rule,
                        JoinPaths* paths);

  std::vector<CddRule> rules_;
  CddIndex cdd_index_;
  ValueNeighborhoods neighborhoods_;
  JoinPaths join_paths_;

  // Index-join scratch, reused across probes. Like neighborhoods_ it is
  // owned by the single ingest owner of the pipeline (DESIGN.md §5).
  /// One probe-to-domain-value distance; valid iff `epoch` equals the
  /// current probe's memo_epoch_ (0 is never current).
  struct MemoEntry {
    double dist = 0.0;
    uint32_t epoch = 0;
  };
  /// dist_memo_[attr][vid], grown lazily with dom(attr).
  std::vector<std::vector<MemoEntry>> dist_memo_;
  uint32_t memo_epoch_ = 0;
  /// sharing_[attr] is ProbeSharing's result, valid iff
  /// sharing_epoch_[attr] == memo_epoch_.
  std::vector<std::vector<ValueId>> sharing_;
  std::vector<uint32_t> sharing_epoch_;
  /// sample_postings_[attr][vid]: the samples carrying vid on attr, for the
  /// first posted_samples_ samples (ascending).
  std::vector<std::vector<std::vector<uint32_t>>> sample_postings_;
  size_t posted_samples_ = 0;
  /// The current rule's satisfying samples.
  std::vector<uint32_t> hits_;
  /// Equation-4 votes of the missing attribute being imputed.
  CandidateCounter counts_;
};

}  // namespace terids

#endif  // TERIDS_CORE_TERIDS_ENGINE_H_
