#include "core/terids_engine.h"

#include "imputation/rule_based_imputer.h"
#include "util/stopwatch.h"

namespace terids {

TerIdsEngine::TerIdsEngine(Repository* repo, EngineConfig config,
                           int num_streams, std::vector<CddRule> rules)
    : PipelineBase(repo, std::move(config), num_streams, /*pruned=*/true,
                   "TER-iDS"),
      rules_(std::move(rules)),
      cdd_index_(repo, &rules_),
      neighborhoods_(repo),
      dist_memo_(repo->num_attributes()),
      sharing_(repo->num_attributes()),
      sharing_epoch_(repo->num_attributes(), 0),
      sample_postings_(repo->num_attributes()) {}

void TerIdsEngine::PostNewSamples() {
  const size_t n = repo_->num_samples();
  for (; posted_samples_ < n; ++posted_samples_) {
    for (int x = 0; x < repo_->num_attributes(); ++x) {
      const ValueId vid = repo_->sample_value_id(posted_samples_, x);
      std::vector<std::vector<uint32_t>>& by_value = sample_postings_[x];
      if (vid >= by_value.size()) {
        by_value.resize(repo_->domain_size(x));
      }
      by_value[vid].push_back(static_cast<uint32_t>(posted_samples_));
    }
  }
}

void TerIdsEngine::BeginProbe() {
  // A new epoch invalidates every entry of the previous probe at once.
  if (++memo_epoch_ == 0) {
    for (auto& per_attr : dist_memo_) {
      per_attr.assign(per_attr.size(), MemoEntry{});
    }
    sharing_epoch_.assign(sharing_epoch_.size(), 0);
    memo_epoch_ = 1;
  }
}

double TerIdsEngine::ProbeDistance(const Record& r, int attr, ValueId vid) {
  std::vector<MemoEntry>& memo = dist_memo_[attr];
  if (vid >= memo.size()) {
    memo.resize(repo_->domain_size(attr));
  }
  MemoEntry& entry = memo[vid];
  if (entry.epoch != memo_epoch_) {
    entry.dist =
        JaccardDistance(r.values[attr].tokens, repo_->value_tokens(attr, vid));
    entry.epoch = memo_epoch_;
  }
  return entry.dist;
}

const std::vector<ValueId>& TerIdsEngine::ProbeSharing(const Record& r,
                                                       int attr) {
  if (sharing_epoch_[attr] != memo_epoch_) {
    neighborhoods_.TokenSharing(attr, r.values[attr].tokens, &sharing_[attr]);
    sharing_epoch_[attr] = memo_epoch_;
  }
  return sharing_[attr];
}

void TerIdsEngine::JoinDeterminants(const Record& r, const CddRule& rule,
                                    JoinPaths* paths) {
  using Kind = AttrConstraint::Kind;
  hits_.clear();
  // The start determinant: the first constant, else the interval below 1
  // with the fewest token-sharing values. An interval that reaches 1.0
  // admits values sharing no token with the probe, so it cannot start.
  const std::pair<int, AttrConstraint>* start = nullptr;
  for (const auto& det : rule.determinants) {
    if (det.second.kind == Kind::kConstant) {
      start = &det;
      break;
    }
  }
  if (start == nullptr) {
    size_t fewest = 0;
    for (const auto& det : rule.determinants) {
      if (det.second.interval.hi < 1.0) {
        const size_t n = ProbeSharing(r, det.first).size();
        if (start == nullptr || n < fewest) {
          start = &det;
          fewest = n;
        }
      }
    }
  }
  auto satisfies_rest = [&](size_t sample_idx) {
    for (const auto& det : rule.determinants) {
      if (&det == start) {
        continue;
      }
      const auto& [attr, constraint] = det;
      const ValueId svid = repo_->sample_value_id(sample_idx, attr);
      if (constraint.kind == Kind::kConstant) {
        // Probe-side equality is the caller's check.
        if (svid != constraint.constant_vid) {
          return false;
        }
      } else if (!constraint.interval.Contains(ProbeDistance(r, attr, svid))) {
        return false;
      }
    }
    return true;
  };
  auto expand = [&](const std::vector<std::vector<uint32_t>>& by_value,
                    ValueId vid) {
    if (vid >= by_value.size()) {
      return;  // No sample carries vid.
    }
    for (uint32_t sample_idx : by_value[vid]) {
      if (satisfies_rest(sample_idx)) {
        hits_.push_back(sample_idx);
      }
    }
  };
  if (start == nullptr) {
    ++paths->scan;
    for (size_t s = 0; s < repo_->num_samples(); ++s) {
      if (satisfies_rest(s)) {
        hits_.push_back(static_cast<uint32_t>(s));
      }
    }
    return;
  }
  const auto& [attr, constraint] = *start;
  if (constraint.kind == Kind::kConstant) {
    ++paths->constant;
    expand(sample_postings_[attr], constraint.constant_vid);
    return;
  }
  ++paths->interval;
  if (r.values[attr].tokens.empty()) {
    ++paths->tokenless_probe;
  }
  // Every value inside an interval below 1 is token-sharing (or, for a
  // token-less probe, token-less), so this walk misses no sample.
  for (ValueId vid : ProbeSharing(r, attr)) {
    if (constraint.interval.Contains(ProbeDistance(r, attr, vid))) {
      expand(sample_postings_[attr], vid);
    }
  }
}

std::vector<ImputedTuple::ImputedAttr> TerIdsEngine::Impute(
    const Record& r, CostBreakdown* cost) {
  std::vector<ImputedTuple::ImputedAttr> result;
  // The index join evaluates each probe-to-domain-value Jaccard distance at
  // most once per arrival, no matter how many selected rules or samples
  // carry that value — this memo is the "simultaneous traversal" payoff of
  // Section 5.3 that the unindexed baselines do not get.
  BeginProbe();
  for (int j : r.MissingAttributes()) {
    // CDD selection via the CDD-index.
    std::vector<int> selected;
    {
      ScopedTimer timer(cost ? &cost->cdd_select_seconds : nullptr);
      selected = cdd_index_.SelectRules(r, j);
    }
    // The determinant join and the Equation-4 vote. Each satisfying
    // (rule, sample) pair votes for the candidate set cand(s[A_j]): a
    // binary-searched slice of the sample value's distance-sorted neighbour
    // list, or the whole domain minus a list prefix when dep reaches 1.
    {
      ScopedTimer timer(cost ? &cost->impute_seconds : nullptr);
      counts_.Fit(repo_->domain_size(j));
      if (!selected.empty()) {
        PostNewSamples();
      }
      for (int rule_idx : selected) {
        const CddRule& rule = rules_[rule_idx];
        // The CDD-index matched the probe side of constant determinants.
        JoinDeterminants(r, rule, &join_paths_);
        for (uint32_t sample_idx : hits_) {
          neighborhoods_.AccumulateRange(
              j, repo_->sample_value_id(sample_idx, j), rule.dep_interval,
              &counts_);
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
  const size_t first = repo_->num_samples();
  Status status = Status::Ok();
  for (const Record& record : batch) {
    status = repo_->AddSample(record);
    if (!status.ok()) {
      break;  // The samples absorbed so far are still joined below.
    }
  }
  PostNewSamples();
  // Each new sample probes every rule against the samples before it, so
  // each pair counts once, as when absorbing one record at a time; Cover is
  // min/max, so the order does not matter.
  JoinPaths absorb_paths;  // join_paths_ counts imputation joins only.
  for (size_t idx = first; idx < repo_->num_samples(); ++idx) {
    const Record& r = batch[idx - first];
    BeginProbe();
    for (CddRule& rule : rules_) {
      // The probe side of constants, which the CDD-index checks for Impute.
      if (!rule.ConstantsMatch(
              [&](int attr) { return repo_->sample_value_id(idx, attr); })) {
        continue;
      }
      JoinDeterminants(r, rule, &absorb_paths);
      for (uint32_t other : hits_) {
        if (other < idx) {  // Not itself, nor a later record of the batch.
          const double dep_dist = ProbeDistance(
              r, rule.dependent, repo_->sample_value_id(other, rule.dependent));
          rule.dep_interval.Cover(dep_dist);
          ++rule.support;
        }
      }
    }
  }
  // The CDD-index lists rules by dependent attribute, which an absorb never
  // changes.
  return status;
}

}  // namespace terids
