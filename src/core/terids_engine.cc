#include "core/terids_engine.h"

#include "imputation/rule_based_imputer.h"
#include "rules/rule_miner.h"
#include "util/stopwatch.h"

namespace terids {

TerIdsEngine::TerIdsEngine(Repository* repo, EngineConfig config,
                           int num_streams, std::vector<CddRule> rules)
    : PipelineBase(repo, std::move(config), num_streams, /*use_grid=*/true,
                   /*use_prunings=*/true, "TER-iDS"),
      rules_(std::move(rules)),
      cdd_index_(repo, &rules_),
      dr_index_(repo),
      neighborhoods_(repo),
      dist_memo_(repo->num_attributes()) {
  cdd_index_.Build();
  dr_index_.Build();
}

std::vector<AttrBand> TerIdsEngine::BandsForRule(const CddRule& rule,
                                                 const ProbeCoords& pc) const {
  const int d = repo_->num_attributes();
  std::vector<AttrBand> bands(d);
  for (const auto& [attr, constraint] : rule.determinants) {
    AttrBand& band = bands[attr];
    const int np = repo_->num_pivots(attr);
    if (constraint.kind == AttrConstraint::Kind::kInterval) {
      // Triangle inequality: |coord_a(s) - coord_a(r)| <= dist(r, s) <=
      // eps_max for every pivot a.
      const double eps = constraint.interval.hi;
      for (int a = 0; a < np && a < static_cast<int>(pc.coords[attr].size());
           ++a) {
        const double c = pc.coords[attr][a];
        band.pivot_bands.push_back(Interval::Of(c - eps, c + eps));
      }
    } else {
      // Constant: the sample must carry exactly this value.
      for (int a = 0; a < np; ++a) {
        const double c =
            repo_->pivot_distance(attr, a, constraint.constant_vid);
        band.pivot_bands.push_back(Interval::Of(c - 1e-9, c + 1e-9));
      }
    }
  }
  return bands;
}

std::vector<ImputedTuple::ImputedAttr> TerIdsEngine::Impute(
    const Record& r, const ProbeCoords& pc, CostBreakdown* cost) {
  std::vector<ImputedTuple::ImputedAttr> result;
  // The index join evaluates each probe-to-domain-value Jaccard distance at
  // most once per arrival, no matter how many selected rules or retrieved
  // samples carry that value — this memo is the "simultaneous traversal"
  // payoff of Section 5.3 that the unindexed baselines do not get. A new
  // epoch invalidates every entry of the previous arrival at once.
  if (++memo_epoch_ == 0) {
    for (auto& per_attr : dist_memo_) {
      per_attr.assign(per_attr.size(), MemoEntry{});
    }
    memo_epoch_ = 1;
  }
  auto probe_value_dist = [&](int attr, ValueId vid) {
    std::vector<MemoEntry>& memo = dist_memo_[attr];
    if (vid >= memo.size()) {
      memo.resize(repo_->domain_size(attr));
    }
    MemoEntry& entry = memo[vid];
    if (entry.epoch != memo_epoch_) {
      entry.dist = JaccardDistance(r.values[attr].tokens,
                                   repo_->value_tokens(attr, vid));
      entry.epoch = memo_epoch_;
    }
    return entry.dist;
  };
  auto determinants_satisfied = [&](const CddRule& rule, size_t sample_idx) {
    for (const auto& [attr, constraint] : rule.determinants) {
      const ValueId svid = repo_->sample_value_id(sample_idx, attr);
      if (constraint.kind == AttrConstraint::Kind::kConstant) {
        // Probe-side equality was verified by the CDD-index; check the
        // sample side.
        if (svid != constraint.constant_vid) {
          return false;
        }
      } else if (!constraint.interval.Contains(probe_value_dist(attr, svid))) {
        return false;
      }
    }
    return true;
  };
  for (int j : r.MissingAttributes()) {
    // CDD selection via the CDD-index.
    std::vector<int> selected;
    {
      ScopedTimer timer(cost ? &cost->cdd_select_seconds : nullptr);
      selected = cdd_index_.SelectRules(r, pc, j);
    }
    // Sample retrieval: ONE pruned DR-index pass shared by all selected
    // rules. The per-attribute filter is the union of the rules' coordinate
    // bands (sound whenever every selected rule constrains the attribute);
    // retrieved samples are verified against each rule with memoized
    // probe-sample distances, and candidate values come from the
    // precomputed neighbor lists. This is the "simultaneous traversal" of
    // Section 5.3: each distance is computed once per arrival (probe-side)
    // or once per engine lifetime (domain-side), not once per rule.
    {
      ScopedTimer timer(cost ? &cost->impute_seconds : nullptr);
      counts_.Fit(repo_->domain_size(j));
      // Union bands per attribute.
      const int d = repo_->num_attributes();
      std::vector<AttrBand> union_bands(d);
      std::vector<bool> all_rules_constrain(d, !selected.empty());
      std::vector<std::vector<Interval>> unions(d);
      for (int rule_idx : selected) {
        const CddRule& rule = rules_[rule_idx];
        const std::vector<AttrBand> bands = BandsForRule(rule, pc);
        for (int x = 0; x < d; ++x) {
          if (bands[x].pivot_bands.empty()) {
            all_rules_constrain[x] = false;
            continue;
          }
          if (unions[x].size() < bands[x].pivot_bands.size()) {
            unions[x].resize(bands[x].pivot_bands.size(), Interval::Empty());
          }
          for (size_t a = 0; a < bands[x].pivot_bands.size(); ++a) {
            unions[x][a].Union(bands[x].pivot_bands[a]);
          }
        }
      }
      for (int x = 0; x < d; ++x) {
        if (all_rules_constrain[x]) {
          union_bands[x].pivot_bands = unions[x];
        }
      }

      if (!selected.empty()) {
        for (size_t sample_idx : dr_index_.Retrieve(union_bands)) {
          for (int rule_idx : selected) {
            const CddRule& rule = rules_[rule_idx];
            if (!determinants_satisfied(rule, sample_idx)) {
              continue;
            }
            // Candidate set cand(s[A_j]): a binary-searched slice of the
            // sample value's distance-sorted neighbor list, or the whole
            // domain minus a list prefix when dep reaches distance 1.
            neighborhoods_.AccumulateRange(
                j, repo_->sample_value_id(sample_idx, j), rule.dep_interval,
                &counts_);
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

Status TerIdsEngine::AbsorbRepositoryBatch(const std::vector<Record>& batch) {
  RuleMiner miner(repo_, MinerOptions{});
  int widened = 0;
  Status status = Status::Ok();
  for (const Record& record : batch) {
    const size_t sample_idx = repo_->num_samples();
    status = repo_->AddSample(record);
    if (!status.ok()) {
      break;  // The samples absorbed so far still get the refresh below.
    }
    dr_index_.InsertSample(sample_idx);
    // Widen rules the new sample violates.
    widened += miner.AbsorbNewSample(sample_idx, &rules_);
  }
  if (widened > 0) {
    // Dependent intervals are leaf aggregates of the CDD-index.
    cdd_index_.Build();
  }
  // The neighbour lists need no refresh here: they do not depend on the
  // rules, and an attribute whose domain grew rebuilds its lists on next use.
  return status;
}

}  // namespace terids
