#include "rules/rule.h"

#include <cstdio>

namespace terids {

bool CddRule::IsDd() const {
  for (const auto& [attr, constraint] : determinants) {
    (void)attr;
    if (constraint.kind != AttrConstraint::Kind::kInterval) {
      return false;
    }
  }
  return true;
}

bool CddRule::IsEditingRule() const {
  if (dep_interval.lo != 0.0 || dep_interval.hi != 0.0) {
    return false;
  }
  for (const auto& [attr, constraint] : determinants) {
    (void)attr;
    if (constraint.kind != AttrConstraint::Kind::kConstant) {
      return false;
    }
  }
  return true;
}

bool CddRule::ApplicableTo(const Record& r) const {
  const uint32_t missing = r.MissingMask();
  return (det_mask & missing) == 0 &&
         (missing & (1u << dependent)) != 0;
}

bool CddRule::DeterminantsSatisfied(const Record& r, const Repository& repo,
                                    size_t sample_idx) const {
  for (const auto& [attr, constraint] : determinants) {
    const AttrValue& rv = r.values[attr];
    if (rv.missing) {
      return false;
    }
    if (constraint.kind == AttrConstraint::Kind::kConstant) {
      const ValueId svid = repo.sample_value_id(sample_idx, attr);
      if (svid != constraint.constant_vid) {
        return false;
      }
      // r must equal the constant too (r1[Ax] = r2[Ax] = v in Definition 3).
      if (!(rv.tokens == repo.value_tokens(attr, constraint.constant_vid))) {
        return false;
      }
    } else {
      const double dist = JaccardDistance(
          rv.tokens, repo.sample(sample_idx).values[attr].tokens);
      if (!constraint.interval.Contains(dist)) {
        return false;
      }
    }
  }
  return true;
}

std::string CddRule::ToString(const Schema& schema) const {
  std::string out = "[";
  for (size_t i = 0; i < determinants.size(); ++i) {
    if (i > 0) out += ",";
    out += schema.name(determinants[i].first);
  }
  out += "] -> " + schema.name(dependent) + ", {";
  char buf[96];
  for (size_t i = 0; i < determinants.size(); ++i) {
    if (i > 0) out += ",";
    const AttrConstraint& c = determinants[i].second;
    if (c.kind == AttrConstraint::Kind::kConstant) {
      std::snprintf(buf, sizeof(buf), "v#%u", c.constant_vid);
    } else {
      std::snprintf(buf, sizeof(buf), "[%.2f,%.2f]", c.interval.lo,
                    c.interval.hi);
    }
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "} I=[%.2f,%.2f] sup=%d", dep_interval.lo,
                dep_interval.hi, support);
  out += buf;
  return out;
}

}  // namespace terids
