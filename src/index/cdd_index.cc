#include "index/cdd_index.h"

#include <array>

namespace terids {

CddIndex::CddIndex(const Repository* repo, const std::vector<CddRule>* rules)
    : repo_(repo), rules_(rules) {
  TERIDS_CHECK(repo != nullptr);
  TERIDS_CHECK(rules != nullptr);
  TERIDS_CHECK(repo->num_attributes() <= 32);  // det_mask is 32 bits.
  by_dependent_.resize(repo->num_attributes());
  for (size_t i = 0; i < rules->size(); ++i) {
    const int dependent = (*rules)[i].dependent;
    TERIDS_CHECK(dependent >= 0 && dependent < repo->num_attributes());
    by_dependent_[dependent].push_back(static_cast<int>(i));
  }
}

std::vector<int> CddIndex::SelectRules(const Record& r, int dependent) const {
  std::vector<int> out;
  const uint32_t missing = r.MissingMask();
  // The probe's interned value per attribute, looked up on first use.
  std::array<ValueId, 32> vids;
  uint32_t looked_up = 0;
  const auto probe_vid = [&](int attr) {
    if ((looked_up & (1u << attr)) == 0) {
      vids[attr] = repo_->FindValue(attr, r.values[attr].tokens);
      looked_up |= 1u << attr;
    }
    return vids[attr];
  };
  for (int rule_idx : by_dependent_[dependent]) {
    const CddRule& rule = (*rules_)[rule_idx];
    if ((rule.det_mask & missing) == 0 && rule.ConstantsMatch(probe_vid)) {
      out.push_back(rule_idx);
    }
  }
  return out;
}

}  // namespace terids
