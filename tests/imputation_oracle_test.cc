// Independent Equation-4 oracle for the TER-iDS index join.
//
// The oracle below is written from Section 3 alone: every applicable rule is
// checked against every repository sample with plain Jaccard distances, and
// every satisfying sample votes for every domain value inside the rule's
// dependent interval. It shares nothing with the engine's imputation path
// (no CDD-index, DR-index, ValueNeighborhoods, distance memo, candidate
// counter or FinalizeCandidates), so agreement checks the index join, its
// reusable scratch and the candidate cut against the paper's definition.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/terids_engine.h"
#include "datagen/profiles.h"
#include "eval/experiment.h"
#include "stream/stream_driver.h"

namespace terids {
namespace {

/// TerIdsEngine that keeps the candidate lists of its latest Impute call.
class RecordingEngine : public TerIdsEngine {
 public:
  using TerIdsEngine::TerIdsEngine;

  int impute_calls = 0;
  std::vector<ImputedTuple::ImputedAttr> last;

 protected:
  std::vector<ImputedTuple::ImputedAttr> Impute(const Record& r,
                                                CostBreakdown* cost) override {
    last = TerIdsEngine::Impute(r, cost);
    ++impute_calls;
    return last;
  }
};

bool OracleDeterminantsHold(const CddRule& rule, const Record& r,
                            const Record& s, const Repository& repo) {
  for (const auto& [x, c] : rule.determinants) {
    const TokenSet& rv = r.values[x].tokens;
    const TokenSet& sv = s.values[x].tokens;
    if (c.kind == AttrConstraint::Kind::kConstant) {
      const TokenSet& constant = repo.value_tokens(x, c.constant_vid);
      if (!(rv == constant) || !(sv == constant)) {
        return false;
      }
    } else if (!c.interval.Contains(JaccardDistance(rv, sv))) {
      return false;
    }
  }
  return true;
}

/// Equations 3 and 4 by exhaustive scan, then the top-`cap` cut with the
/// ValueId tie-break and renormalisation over the kept mass. Sets
/// `*reached_one` if a rule whose dependent interval reaches distance 1 had
/// a satisfying sample.
std::vector<ImputedTuple::ImputedAttr> OracleImpute(
    const Record& r, const Repository& repo, const std::vector<CddRule>& rules,
    int cap, bool* reached_one) {
  *reached_one = false;
  std::vector<ImputedTuple::ImputedAttr> result;
  for (int j = 0; j < r.num_attributes(); ++j) {
    if (!r.values[j].missing) {
      continue;
    }
    std::map<ValueId, long> votes;
    for (const CddRule& rule : rules) {
      if (rule.dependent != j) {
        continue;
      }
      bool applicable = true;
      for (const auto& det : rule.determinants) {
        applicable = applicable && !r.values[det.first].missing;
      }
      if (!applicable) {
        continue;
      }
      for (size_t i = 0; i < repo.num_samples(); ++i) {
        const Record& s = repo.sample(i);
        if (!OracleDeterminantsHold(rule, r, s, repo)) {
          continue;
        }
        *reached_one = *reached_one || rule.dep_interval.hi >= 1.0;
        for (ValueId v = 0; v < repo.domain_size(j); ++v) {
          if (rule.dep_interval.Contains(JaccardDistance(
                  s.values[j].tokens, repo.value_tokens(j, v)))) {
            ++votes[v];
          }
        }
      }
    }
    if (votes.empty()) {
      continue;
    }
    long total = 0;
    for (const auto& [vid, f] : votes) {
      total += f;
    }
    ImputedTuple::ImputedAttr ia;
    ia.attr = j;
    for (const auto& [vid, f] : votes) {
      ia.candidates.push_back(
          {vid, static_cast<double>(f) / static_cast<double>(total)});
    }
    std::sort(ia.candidates.begin(), ia.candidates.end(),
              [](const ImputedTuple::Candidate& a,
                 const ImputedTuple::Candidate& b) {
                return a.prob != b.prob ? a.prob > b.prob : a.vid < b.vid;
              });
    if (static_cast<int>(ia.candidates.size()) > cap) {
      ia.candidates.resize(cap);
      double kept = 0.0;
      for (const ImputedTuple::Candidate& c : ia.candidates) {
        kept += c.prob;
      }
      for (ImputedTuple::Candidate& c : ia.candidates) {
        c.prob /= kept;
      }
    }
    result.push_back(std::move(ia));
  }
  return result;
}

void ExpectSameImputation(const std::vector<ImputedTuple::ImputedAttr>& got,
                          const std::vector<ImputedTuple::ImputedAttr>& want,
                          int64_t rid) {
  ASSERT_EQ(got.size(), want.size()) << "rid " << rid;
  for (size_t a = 0; a < got.size(); ++a) {
    EXPECT_EQ(got[a].attr, want[a].attr) << "rid " << rid;
    ASSERT_EQ(got[a].candidates.size(), want[a].candidates.size())
        << "rid " << rid << " attr " << want[a].attr;
    for (size_t c = 0; c < got[a].candidates.size(); ++c) {
      EXPECT_EQ(got[a].candidates[c].vid, want[a].candidates[c].vid)
          << "rid " << rid << " attr " << want[a].attr << " rank " << c;
      // Integer votes normalised the same way: the bits must agree.
      EXPECT_EQ(got[a].candidates[c].prob, want[a].candidates[c].prob)
          << "rid " << rid << " attr " << want[a].attr << " rank " << c;
    }
  }
}

int FirstMissing(const Record& r) {
  for (int x = 0; x < r.num_attributes(); ++x) {
    if (r.values[x].missing) {
      return x;
    }
  }
  return -1;
}

struct OracleCoverage {
  int checked = 0;
  int imputed = 0;
  /// Incomplete arrivals missing a different attribute than the previous
  /// incomplete arrival (the scratch switches domains between calls).
  int attr_switches = 0;
  /// Candidates that are values the absorb added (the scratch grew).
  int absorbed_value_candidates = 0;
  /// Arrivals voted on by a rule whose dependent interval reaches distance
  /// 1, whose votes the engine counts without listing the voted values.
  int reached_one = 0;
};

/// Streams the experiment's incomplete arrivals through a RecordingEngine,
/// absorbing held-out complete records halfway, and checks every incomplete
/// arrival's imputation against the oracle.
OracleCoverage CheckAgainstOracle(const DatasetProfile& profile,
                                  double scale) {
  ExperimentParams params;
  params.scale = scale;
  params.w = 60;
  params.xi = 0.5;
  params.m = 1;
  params.max_arrivals = 300;
  Experiment experiment(profile, params);
  std::unique_ptr<Repository> repo = experiment.BuildRepository();
  const EngineConfig config = experiment.MakeConfig();
  RecordingEngine engine(repo.get(), config, 2, experiment.cdds());
  StreamDriver driver({experiment.incomplete_a(), experiment.incomplete_b()});

  OracleCoverage cov;
  const int d = repo->num_attributes();
  std::vector<size_t> domain_before(d, 0);
  int prev_missing = -1;
  const int kArrivals = params.max_arrivals;
  for (int i = 0; i < kArrivals && driver.HasNext(); ++i) {
    if (i == kArrivals / 2) {
      // Complete stream-side records carry values the repository has not
      // seen, so the absorb grows domains mid-stream.
      for (int x = 0; x < d; ++x) {
        domain_before[x] = repo->domain_size(x);
      }
      const std::vector<Record>& src = experiment.dataset().source_b;
      std::vector<Record> held_out(src.end() - std::min<size_t>(src.size(), 20),
                                   src.end());
      EXPECT_TRUE(engine.AbsorbRepositoryBatch(held_out).ok());
      bool grew = false;
      for (int x = 0; x < d; ++x) {
        grew = grew || repo->domain_size(x) > domain_before[x];
      }
      EXPECT_TRUE(grew) << profile.name;
    }
    const Record r = driver.Next();
    const int calls_before = engine.impute_calls;
    engine.ProcessArrival(r);
    if (engine.impute_calls == calls_before) {
      continue;  // complete arrival: imputation bypassed
    }
    ++cov.checked;
    bool reached_one = false;
    const std::vector<ImputedTuple::ImputedAttr> want =
        OracleImpute(r, *repo, engine.rules(), config.max_candidates_per_attr,
                     &reached_one);
    ExpectSameImputation(engine.last, want, r.rid);
    cov.reached_one += reached_one ? 1 : 0;
    cov.imputed += engine.last.empty() ? 0 : 1;
    const int missing = FirstMissing(r);
    if (prev_missing != -1 && missing != prev_missing) {
      ++cov.attr_switches;
    }
    prev_missing = missing;
    for (const ImputedTuple::ImputedAttr& ia : engine.last) {
      for (const ImputedTuple::Candidate& c : ia.candidates) {
        if (domain_before[ia.attr] > 0 && c.vid >= domain_before[ia.attr]) {
          ++cov.absorbed_value_candidates;
        }
      }
    }
  }
  return cov;
}

TEST(ImputationOracleTest, CitationsMatchesSectionThree) {
  const OracleCoverage cov = CheckAgainstOracle(CitationsProfile(), 0.05);
  EXPECT_GT(cov.imputed, 50);
  EXPECT_GT(cov.attr_switches, 50);
  // Post-absorb arrivals draw candidates from the grown domains.
  EXPECT_GT(cov.absorbed_value_candidates, 0);
  EXPECT_GT(cov.reached_one, 0);
}

TEST(ImputationOracleTest, SongsMatchesSectionThree) {
  const OracleCoverage cov = CheckAgainstOracle(SongsProfile(), 0.003);
  EXPECT_GT(cov.imputed, 50);
  EXPECT_GT(cov.attr_switches, 50);
  EXPECT_GT(cov.reached_one, 0);
}

}  // namespace
}  // namespace terids
