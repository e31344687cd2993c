#ifndef TERIDS_INDEX_CDD_INDEX_H_
#define TERIDS_INDEX_CDD_INDEX_H_

#include <vector>

#include "index/artree.h"
#include "repo/repository.h"
#include "rules/rule.h"
#include "tuple/record.h"

namespace terids {

/// Pivot-converted coordinates of a probe record: coords[x][a] =
/// dist(r[A_x], piv_a[A_x]); coords[x] is empty when r[A_x] is missing.
/// Computed once per arrival for the CDD-index probe.
struct ProbeCoords {
  std::vector<std::vector<double>> coords;

  static ProbeCoords Compute(const Record& r, const Repository& repo);

  bool missing(int attr) const { return coords[attr].empty(); }
  double main(int attr) const { return coords[attr][0]; }
};

/// The CDD-index I_j (Section 5.1, Figure 2): a lattice of determinant
/// attribute sets, each lattice node holding an aR-tree over the constraint
/// geometry of its rules.
///
/// Geometry encoding per determinant dimension x (as in the paper):
///  * constant constraint v  -> the point coord dist(v, piv_1[A_x]);
///  * interval constraint    -> the marker [-1,-1];
///  * attribute not in X     -> the marker [-2,-2].
/// The probe reads only the boxes.
class CddIndex {
 public:
  CddIndex(const Repository* repo, const std::vector<CddRule>* rules);

  /// Builds the lattice and the per-group aR-trees.
  void Build();

  /// Adds a rule appended to the rule vector after Build() (dynamic rule
  /// maintenance, Section 5.5).
  void InsertRule(int rule_idx);
  /// Removes a rule from the index. Returns false if absent.
  bool RemoveRule(int rule_idx);

  /// Indices of rules with dependent attribute `dependent` that are
  /// applicable to the probe record (determinants all non-missing) and whose
  /// constraint geometry is compatible with the probe coordinates: constant
  /// constraints must match the probe value (verified exactly against the
  /// domain). Interval constraints are not filtered here — they constrain
  /// the (r, sample) pair, which the engine's determinant join evaluates.
  std::vector<int> SelectRules(const Record& r, const ProbeCoords& pc,
                               int dependent) const;

  size_t num_groups() const { return groups_.size(); }
  /// How many times Build() has run.
  int num_builds() const { return num_builds_; }

 private:
  struct Group {
    int dependent = -1;
    uint32_t det_mask = 0;
    int level = 0;  // popcount(det_mask), the lattice level.
    ArTree tree;
    Group(int dims) : tree(dims) {}
  };

  ArTreeEntry MakeEntry(int rule_idx) const;
  int FindOrAddGroup(int dependent, uint32_t det_mask);
  void ProbeGroup(const Group& group, const Record& r, const ProbeCoords& pc,
                  std::vector<int>* out) const;

  const Repository* repo_;
  const std::vector<CddRule>* rules_;
  std::vector<Group> groups_;
  int num_builds_ = 0;
};

}  // namespace terids

#endif  // TERIDS_INDEX_CDD_INDEX_H_
