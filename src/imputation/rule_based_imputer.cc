#include "imputation/rule_based_imputer.h"

#include <algorithm>

#include "util/stopwatch.h"

namespace terids {

RuleBasedImputer::RuleBasedImputer(const Repository* repo,
                                   std::vector<CddRule> rules,
                                   int max_candidates_per_attr)
    : repo_(repo),
      rules_(std::move(rules)),
      max_candidates_per_attr_(max_candidates_per_attr) {
  TERIDS_CHECK(repo != nullptr);
  by_dependent_.resize(repo->num_attributes());
  for (size_t i = 0; i < rules_.size(); ++i) {
    TERIDS_CHECK(rules_[i].dependent >= 0 &&
                 rules_[i].dependent < repo->num_attributes());
    by_dependent_[rules_[i].dependent].push_back(static_cast<int>(i));
  }
}

const std::vector<int>& RuleBasedImputer::RulesForDependent(int attr) const {
  TERIDS_CHECK(attr >= 0 && attr < static_cast<int>(by_dependent_.size()));
  return by_dependent_[attr];
}

void AccumulateCandidates(const Repository& repo, const CddRule& rule,
                          size_t sample_idx, CandidateCounter* counts) {
  const int j = rule.dependent;
  const ValueId svid = repo.sample_value_id(sample_idx, j);
  const TokenSet& s_tokens = repo.value_tokens(j, svid);
  const Interval& dep = rule.dep_interval;
  const size_t dom_size = repo.domain_size(j);
  for (ValueId val = 0; val < dom_size; ++val) {
    const double dist = JaccardDistance(s_tokens, repo.value_tokens(j, val));
    if (dep.Contains(dist)) {
      counts->Add(val);
    }
  }
}

std::vector<ImputedTuple::Candidate> FinalizeCandidates(
    CandidateCounter* counts, int max_candidates) {
  std::vector<ImputedTuple::Candidate> out;
  // Integer votes: the total and every quotient are exact regardless of
  // the order the values were voted for.
  const uint64_t total = counts->total();
  if (total == 0) {
    counts->Clear();
    return out;
  }
  // Deterministic order: probability descending, ValueId ascending. The
  // vid tie-break makes the cap cut identical regardless of accumulation
  // order, so indexed and linear imputation produce byte-identical tuples.
  uint64_t kept_votes = 0;
  counts->ForEachTop(static_cast<size_t>(max_candidates),
                     [&](ValueId vid, uint32_t f) {
                       kept_votes += f;
                       out.push_back({vid, static_cast<double>(f) /
                                               static_cast<double>(total)});
                     });
  counts->Clear();
  if (kept_votes < total) {
    // The cap cut: keep the top candidates and renormalize over the
    // retained set, so the truncated distribution becomes the imputation
    // model. Without this, capping strands probability mass and a
    // correctly-imputed pair whose candidates split the vote can never
    // clear the alpha threshold.
    double kept = 0.0;
    for (const ImputedTuple::Candidate& c : out) {
      kept += c.prob;
    }
    if (kept > 0.0) {
      for (ImputedTuple::Candidate& c : out) {
        c.prob /= kept;
      }
    }
  }
  return out;
}

std::vector<ImputedTuple::ImputedAttr> RuleBasedImputer::ImputeRecord(
    const Record& r, CostBreakdown* cost) {
  std::vector<ImputedTuple::ImputedAttr> result;
  for (int j : r.MissingAttributes()) {
    // Rule selection phase: find the applicable rules with dependent A_j.
    std::vector<const CddRule*> applicable;
    {
      ScopedTimer timer(cost ? &cost->cdd_select_seconds : nullptr);
      for (int idx : by_dependent_[j]) {
        if (rules_[idx].ApplicableTo(r)) {
          applicable.push_back(&rules_[idx]);
        }
      }
    }
    // Imputation phase: retrieve satisfying samples and accumulate the
    // multi-rule frequency distribution of Equation (4).
    {
      ScopedTimer timer(cost ? &cost->impute_seconds : nullptr);
      counts_.Fit(repo_->domain_size(j));
      for (const CddRule* rule : applicable) {
        for (size_t i = 0; i < repo_->num_samples(); ++i) {
          if (rule->DeterminantsSatisfied(r, *repo_, i)) {
            AccumulateCandidates(*repo_, *rule, i, &counts_);
          }
        }
      }
    }
    std::vector<ImputedTuple::Candidate> cands =
        FinalizeCandidates(&counts_, max_candidates_per_attr_);
    if (!cands.empty()) {
      ImputedTuple::ImputedAttr ia;
      ia.attr = j;
      ia.candidates = std::move(cands);
      result.push_back(std::move(ia));
    }
  }
  return result;
}

}  // namespace terids
