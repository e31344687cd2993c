#ifndef TERIDS_IMPUTATION_RULE_BASED_IMPUTER_H_
#define TERIDS_IMPUTATION_RULE_BASED_IMPUTER_H_

#include <vector>

#include "imputation/candidate_counter.h"
#include "imputation/imputer.h"
#include "repo/repository.h"
#include "rules/rule.h"

namespace terids {

/// Imputes missing attributes by applying dependency rules against the data
/// repository R (Section 3).
///
/// One engine serves all three rule families — CDDs (Equations 3/4), DDs,
/// and editing rules — because they share the representation (rules/rule.h):
/// construct it with the corresponding miner output. This is the *linear*
/// strategy (scan all rules, scan all samples, scan the dependent
/// attribute's whole domain per satisfying sample). The TER-iDS engine
/// replaces the rule scan with the CDD-index and the sample scan with a
/// postings join over the probe's token-sharing values (DESIGN.md §5), and
/// shares FinalizeCandidates below, so both impute byte-identically; the
/// engine's tests check it against this class.
class RuleBasedImputer : public Imputer {
 public:
  /// `max_candidates_per_attr` candidate values are retained per missing
  /// attribute (highest frequency first) before instance materialization.
  RuleBasedImputer(const Repository* repo, std::vector<CddRule> rules,
                   int max_candidates_per_attr);

  std::vector<ImputedTuple::ImputedAttr> ImputeRecord(
      const Record& r, CostBreakdown* cost) override;

  const std::vector<CddRule>& rules() const { return rules_; }
  /// Indices (into rules()) of the rules whose dependent attribute is j.
  const std::vector<int>& RulesForDependent(int attr) const;

 private:
  const Repository* repo_;
  std::vector<CddRule> rules_;
  std::vector<std::vector<int>> by_dependent_;
  int max_candidates_per_attr_;
  /// Equation-4 vote scratch, drained by every FinalizeCandidates call.
  CandidateCounter counts_;
};

/// Accumulates, into `counts`, the candidate set cand(s[A_j]) contributed by
/// one (rule, repository sample) combination: every domain value `val` of
/// attribute `attr_j` with dist(s[A_j], val) inside the rule's dependent
/// interval gets one vote (Section 3), found by scanning dom(A_j). The
/// caller is responsible for having verified the determinant constraints
/// and for fitting `counts` to dom(A_j).
void AccumulateCandidates(const Repository& repo, const CddRule& rule,
                          size_t sample_idx, CandidateCounter* counts);

/// Converts the accumulated votes into the normalized candidate list of
/// Equation (4), keeping the top `max_candidates`, and drains `counts` for
/// the next attribute.
std::vector<ImputedTuple::Candidate> FinalizeCandidates(
    CandidateCounter* counts, int max_candidates);

}  // namespace terids

#endif  // TERIDS_IMPUTATION_RULE_BASED_IMPUTER_H_
