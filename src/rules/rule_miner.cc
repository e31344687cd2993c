#include "rules/rule_miner.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace terids {

namespace {

/// Dependent interval over a sample of distances: [min, quantile q].
Interval DependentInterval(std::vector<double> dists, double q) {
  TERIDS_CHECK(!dists.empty());
  std::sort(dists.begin(), dists.end());
  size_t hi_idx = static_cast<size_t>(
      std::floor(q * static_cast<double>(dists.size() - 1)));
  return Interval::Of(dists.front(), dists[hi_idx]);
}

}  // namespace

RuleMiner::RuleMiner(const Repository* repo, MinerOptions options)
    : repo_(repo), options_(options) {
  TERIDS_CHECK(repo != nullptr);
  TERIDS_CHECK(options_.buckets >= 2);
  TERIDS_CHECK(options_.pair_samples > 0);
}

std::vector<RuleMiner::PairSample> RuleMiner::DrawPairs() const {
  const size_t n = repo_->num_samples();
  const int d = repo_->num_attributes();
  std::vector<PairSample> pairs;
  if (n < 2) {
    return pairs;
  }
  const uint64_t total_pairs = n * (n - 1) / 2;
  const uint64_t want = std::min<uint64_t>(
      total_pairs, static_cast<uint64_t>(options_.pair_samples));
  Rng rng(options_.seed);
  pairs.reserve(want);
  if (total_pairs <= want) {
    // Enumerate all pairs for small repositories.
    for (size_t a = 0; a + 1 < n; ++a) {
      for (size_t b = a + 1; b < n; ++b) {
        pairs.push_back({a, b, {}});
      }
    }
  } else {
    for (uint64_t i = 0; i < want; ++i) {
      size_t a = rng.NextBounded(n);
      size_t b = rng.NextBounded(n);
      while (b == a) {
        b = rng.NextBounded(n);
      }
      pairs.push_back({a, b, {}});
    }
  }
  for (PairSample& p : pairs) {
    p.dists.resize(d);
    const Record& ra = repo_->sample(p.a);
    const Record& rb = repo_->sample(p.b);
    for (int x = 0; x < d; ++x) {
      p.dists[x] = JaccardDistance(ra.values[x].tokens, rb.values[x].tokens);
    }
  }
  return pairs;
}

std::vector<CddRule> RuleMiner::MineWithMode(bool dd_mode) const {
  const int d = repo_->num_attributes();
  const std::vector<PairSample> pairs = DrawPairs();
  std::vector<CddRule> rules;
  if (pairs.empty()) {
    return rules;
  }

  const int B = options_.buckets;
  for (int j = 0; j < d; ++j) {
    // level1[x] holds the level-1 rules mined with determinant x.
    std::vector<std::vector<CddRule>> level1(d);
    for (int x = 0; x < d; ++x) {
      if (x == j) continue;

      // Bucket pairs by their determinant distance and collect the
      // dependent distances per bucket.
      std::vector<std::vector<double>> bucket_dep(B);
      for (const PairSample& p : pairs) {
        int b = static_cast<int>(p.dists[x] * B);
        if (b >= B) b = B - 1;
        bucket_dep[b].push_back(p.dists[j]);
      }

      const double width_cap =
          dd_mode ? options_.dd_max_dep_width : options_.max_dep_width;
      const double hi_cap =
          dd_mode ? options_.dd_max_dep_hi : options_.max_dep_hi;
      int emitted = 0;
      // DD mode accumulates cumulatively: the constraint [0, (b+1)/B] must
      // bound the dependent over *all* pairs within that determinant
      // distance, matching the classic [0, eps] form of [35].
      std::vector<double> cumulative;
      for (int b = 0; b < B && emitted < options_.max_buckets_per_pair; ++b) {
        const std::vector<double>* dep_sample = &bucket_dep[b];
        if (dd_mode) {
          cumulative.insert(cumulative.end(), bucket_dep[b].begin(),
                            bucket_dep[b].end());
          dep_sample = &cumulative;
        }
        if (static_cast<int>(dep_sample->size()) < options_.min_support) {
          continue;
        }
        Interval dep = DependentInterval(*dep_sample, options_.dep_quantile);
        if (dd_mode) {
          dep.lo = 0.0;  // DDs do not use the relaxed eps_min.
        }
        if (dep.width() > width_cap || dep.hi > hi_cap) {
          continue;
        }
        CddRule rule;
        rule.dependent = j;
        rule.det_mask = 1u << x;
        const double lo = dd_mode ? 0.0 : static_cast<double>(b) / B;
        const double hi = static_cast<double>(b + 1) / B;
        rule.determinants.emplace_back(x, AttrConstraint::MakeInterval(lo, hi));
        rule.dep_interval = dep;
        rule.support = static_cast<int>(dep_sample->size());
        level1[x].push_back(rule);
        ++emitted;
      }

      // Editing-rule fallback with constants: determinants whose best
      // interval was too loose (no emissions) impute via specific values.
      if (!dd_mode && options_.mine_constants && emitted == 0) {
        std::vector<std::pair<int, ValueId>> frequent;
        const size_t dom_size = repo_->domain_size(x);
        for (ValueId v = 0; v < dom_size; ++v) {
          const int freq = repo_->value_frequency(x, v);
          if (freq >= options_.min_const_freq) {
            frequent.emplace_back(freq, v);
          }
        }
        std::sort(frequent.rbegin(), frequent.rend());
        if (static_cast<int>(frequent.size()) >
            options_.max_constants_per_attr) {
          frequent.resize(options_.max_constants_per_attr);
        }
        for (const auto& [freq, vid] : frequent) {
          (void)freq;
          std::vector<double> dep_dists;
          for (const PairSample& p : pairs) {
            if (repo_->sample_value_id(p.a, x) == vid &&
                repo_->sample_value_id(p.b, x) == vid) {
              dep_dists.push_back(p.dists[j]);
            }
          }
          if (static_cast<int>(dep_dists.size()) < options_.min_support) {
            continue;
          }
          Interval dep = DependentInterval(dep_dists, options_.dep_quantile);
          if (dep.width() > options_.max_dep_width ||
              dep.hi > options_.max_dep_hi) {
            continue;
          }
          CddRule rule;
          rule.dependent = j;
          rule.det_mask = 1u << x;
          rule.determinants.emplace_back(x, AttrConstraint::MakeConstant(vid));
          rule.dep_interval = dep;
          rule.support = static_cast<int>(dep_dists.size());
          level1[x].push_back(rule);
        }
      }
    }

    // Level-2 combinations: conjoin the best level-1 rule of two distinct
    // determinants; the conjunction's dependent interval is recomputed over
    // the pairs satisfying both constraints and kept if tighter.
    std::vector<CddRule> level2;
    if (!dd_mode && options_.combine_level2) {
      for (int x1 = 0; x1 < d; ++x1) {
        if (level1[x1].empty()) continue;
        for (int x2 = x1 + 1; x2 < d; ++x2) {
          if (level1[x2].empty()) continue;
          if (static_cast<int>(level2.size()) >= options_.max_level2_rules) {
            break;
          }
          const CddRule& r1 = level1[x1].front();
          const CddRule& r2 = level1[x2].front();
          // Constant constraints rarely co-occur often enough; combine only
          // interval constraints.
          if (r1.determinants[0].second.kind !=
                  AttrConstraint::Kind::kInterval ||
              r2.determinants[0].second.kind !=
                  AttrConstraint::Kind::kInterval) {
            continue;
          }
          std::vector<double> dep_dists;
          for (const PairSample& p : pairs) {
            if (r1.determinants[0].second.interval.Contains(p.dists[x1]) &&
                r2.determinants[0].second.interval.Contains(p.dists[x2])) {
              dep_dists.push_back(p.dists[j]);
            }
          }
          if (static_cast<int>(dep_dists.size()) < options_.min_support) {
            continue;
          }
          Interval dep = DependentInterval(dep_dists, options_.dep_quantile);
          const double parent_width =
              std::min(r1.dep_interval.width(), r2.dep_interval.width());
          if (dep.width() >= parent_width) {
            continue;  // No refinement over the parents.
          }
          CddRule rule;
          rule.dependent = j;
          rule.det_mask = (1u << x1) | (1u << x2);
          rule.determinants.push_back(r1.determinants[0]);
          rule.determinants.push_back(r2.determinants[0]);
          rule.dep_interval = dep;
          rule.support = static_cast<int>(dep_dists.size());
          level2.push_back(rule);
        }
      }
    }

    for (int x = 0; x < d; ++x) {
      rules.insert(rules.end(), level1[x].begin(), level1[x].end());
    }
    rules.insert(rules.end(), level2.begin(), level2.end());
  }
  return rules;
}

std::vector<CddRule> RuleMiner::MineCdds() const { return MineWithMode(false); }

std::vector<CddRule> RuleMiner::MineDds() const { return MineWithMode(true); }

std::vector<CddRule> RuleMiner::MineEditingRules() const {
  const int d = repo_->num_attributes();
  const std::vector<PairSample> pairs = DrawPairs();
  std::vector<CddRule> rules;
  for (int j = 0; j < d; ++j) {
    for (int x = 0; x < d; ++x) {
      if (x == j) continue;
      std::vector<std::pair<int, ValueId>> frequent;
      const size_t dom_size = repo_->domain_size(x);
      for (ValueId v = 0; v < dom_size; ++v) {
        const int freq = repo_->value_frequency(x, v);
        if (freq >= options_.min_const_freq) {
          frequent.emplace_back(freq, v);
        }
      }
      std::sort(frequent.rbegin(), frequent.rend());
      if (static_cast<int>(frequent.size()) > options_.max_constants_per_attr) {
        frequent.resize(options_.max_constants_per_attr);
      }
      for (const auto& [freq, vid] : frequent) {
        (void)freq;
        // An editing rule asserts a (near-)certain fix: tuples sharing the
        // constant agree on the dependent within a tight tolerance. Exact
        // token-set equality almost never holds on noisy text, so the
        // certainty requirement is "agreement within editing_tolerance for
        // at least editing_agreement of the supporting pairs".
        int support = 0;
        int agree = 0;
        for (const PairSample& p : pairs) {
          if (repo_->sample_value_id(p.a, x) == vid &&
              repo_->sample_value_id(p.b, x) == vid) {
            ++support;
            if (p.dists[j] <= options_.editing_tolerance) {
              ++agree;
            }
          }
        }
        if (support < options_.min_support) {
          continue;
        }
        if (agree < support * options_.editing_agreement) {
          continue;
        }
        CddRule rule;
        rule.dependent = j;
        rule.det_mask = 1u << x;
        rule.determinants.emplace_back(x, AttrConstraint::MakeConstant(vid));
        rule.dep_interval = Interval::Of(0.0, options_.editing_tolerance);
        rule.support = support;
        rules.push_back(rule);
      }
    }
  }
  return rules;
}

}  // namespace terids
