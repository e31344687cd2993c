#ifndef TERIDS_RULES_RULE_H_
#define TERIDS_RULES_RULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "repo/repository.h"
#include "tuple/record.h"
#include "util/interval.h"

namespace terids {

/// Constraint phi[A_x] on one determinant attribute of a CDD (Definition 3):
/// either a distance interval [eps_min, eps_max] on the Jaccard distance of
/// the two tuples' values, or a specific constant value both must equal.
struct AttrConstraint {
  enum class Kind { kInterval, kConstant };

  Kind kind = Kind::kInterval;
  /// For kInterval: the distance constraint. The paper relaxes eps_min to
  /// any non-negative value < eps_max, which we honor.
  Interval interval = Interval::Of(0.0, 1.0);
  /// For kConstant: the required value, as an id into dom(A_x).
  ValueId constant_vid = kInvalidValueId;

  static AttrConstraint MakeInterval(double lo, double hi) {
    AttrConstraint c;
    c.kind = Kind::kInterval;
    c.interval = Interval::Of(lo, hi);
    return c;
  }
  static AttrConstraint MakeConstant(ValueId vid) {
    AttrConstraint c;
    c.kind = Kind::kConstant;
    c.constant_vid = vid;
    return c;
  }
};

/// A conditional differential dependency X -> A_j, phi[X A_j] (Definition 3).
///
/// DDs and editing rules are represented in the same structure: a DD is a
/// CDD whose determinant constraints are all intervals with eps_min = 0; an
/// editing rule is a CDD whose determinant constraints are all constants and
/// whose dependent interval is [0, 0] (exact copy).
struct CddRule {
  int dependent = -1;
  /// Bit x set iff attribute x is a determinant.
  uint32_t det_mask = 0;
  /// (attribute, constraint) pairs sorted by attribute index.
  std::vector<std::pair<int, AttrConstraint>> determinants;
  /// The dependent distance constraint A_j.I.
  Interval dep_interval = Interval::Of(0.0, 1.0);
  /// Number of repository pairs that supported this rule during mining.
  int support = 0;

  bool IsDd() const;
  bool IsEditingRule() const;

  /// True iff every determinant attribute is non-missing in `r` (the rule
  /// can be evaluated against r at all).
  bool ApplicableTo(const Record& r) const;

  /// True iff every constant determinant equals the probe's value, where
  /// `probe_vid(x)` is the probe's interned ValueId on attribute x
  /// (kInvalidValueId when the value is not in dom(A_x)). Values are
  /// interned by token set, so this is the r[A_x] = v test of Definition 3.
  template <typename ProbeVid>
  bool ConstantsMatch(const ProbeVid& probe_vid) const {
    for (const auto& [attr, constraint] : determinants) {
      if (constraint.kind == AttrConstraint::Kind::kConstant &&
          probe_vid(attr) != constraint.constant_vid) {
        return false;
      }
    }
    return true;
  }

  /// True iff (r, sample `sample_idx` of repo) satisfy phi[X]: every
  /// interval determinant's Jaccard distance lies inside its interval, and
  /// every constant determinant matches on both sides.
  bool DeterminantsSatisfied(const Record& r, const Repository& repo,
                             size_t sample_idx) const;

  /// Debug rendering, e.g.
  /// "[title,authors] -> venue, {[0,0.2],[0,0.3]} I=[0,0.25]".
  std::string ToString(const Schema& schema) const;
};

}  // namespace terids

#endif  // TERIDS_RULES_RULE_H_
