#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/terids_engine.h"
#include "imputation/constraint_imputer.h"
#include "imputation/rule_based_imputer.h"
#include "imputation/value_neighborhoods.h"
#include "rules/rule_miner.h"
#include "test_util.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

// Candidate values kept per missing attribute by the imputers under test.
constexpr int kMaxCandidates = 16;

class RuleBasedImputerTest : public ::testing::Test {
 protected:
  RuleBasedImputerTest() : world_(MakeHealthWorld()) {
    MinerOptions opts;
    opts.min_support = 2;
    opts.min_const_freq = 2;
    RuleMiner miner(world_.repo.get(), opts);
    rules_ = miner.MineCdds();
  }
  ToyWorld world_;
  std::vector<CddRule> rules_;
};

TEST_F(RuleBasedImputerTest, ImputesDiagnosisFromSymptoms) {
  RuleBasedImputer imputer(world_.repo.get(), rules_, kMaxCandidates);
  // Post a2 of the paper's Table 1: diabetic symptoms, missing diagnosis.
  Record r = world_.Make(1, {"male", "loss of weight blurred vision", "-",
                             "drug therapy"});
  auto imputed = imputer.ImputeRecord(r, nullptr);
  ASSERT_EQ(imputed.size(), 1u);
  EXPECT_EQ(imputed[0].attr, 2);
  ASSERT_FALSE(imputed[0].candidates.empty());
  // The top candidate must be "diabetes" (it dominates the frequency vote).
  const ValueId top = imputed[0].candidates[0].vid;
  EXPECT_EQ(world_.repo->domain(2).text(top), "diabetes");
  // Probabilities are a normalized distribution.
  double total = 0;
  for (const auto& c : imputed[0].candidates) {
    EXPECT_GT(c.prob, 0.0);
    total += c.prob;
  }
  EXPECT_LE(total, 1.0 + 1e-9);
}

TEST_F(RuleBasedImputerTest, CompleteRecordNeedsNoImputation) {
  RuleBasedImputer imputer(world_.repo.get(), rules_, kMaxCandidates);
  Record r = world_.Make(2, {"male", "fever", "flu", "rest"});
  EXPECT_TRUE(imputer.ImputeRecord(r, nullptr).empty());
}

TEST_F(RuleBasedImputerTest, CostAccountingSplitsPhases) {
  RuleBasedImputer imputer(world_.repo.get(), rules_, kMaxCandidates);
  Record r = world_.Make(1, {"male", "loss of weight", "-", "-"});
  CostBreakdown cost;
  imputer.ImputeRecord(r, &cost);
  EXPECT_GT(cost.cdd_select_seconds + cost.impute_seconds, 0.0);
  EXPECT_DOUBLE_EQ(cost.er_seconds, 0.0);
}

TEST_F(RuleBasedImputerTest, RulesForDependentPartitionsRuleSet) {
  RuleBasedImputer imputer(world_.repo.get(), rules_, kMaxCandidates);
  size_t total = 0;
  for (int j = 0; j < world_.repo->num_attributes(); ++j) {
    for (int idx : imputer.RulesForDependent(j)) {
      EXPECT_EQ(imputer.rules()[idx].dependent, j);
      ++total;
    }
  }
  EXPECT_EQ(total, rules_.size());
}

// The values of `attr` at distance < 1 from `center`, sorted the way a
// neighbour list is.
std::vector<std::pair<double, ValueId>> BruteForceList(const Repository& repo,
                                                       int attr,
                                                       ValueId center) {
  std::vector<std::pair<double, ValueId>> want;
  for (ValueId v = 0; v < repo.domain_size(attr); ++v) {
    const double dist = JaccardDistance(repo.value_tokens(attr, center),
                                        repo.value_tokens(attr, v));
    if (dist < 1.0) {
      want.emplace_back(dist, v);
    }
  }
  std::sort(want.begin(), want.end());
  return want;
}

TEST(ValueNeighborhoodsTest, ListIsExactlyValuesBelowDistanceOne) {
  ToyWorld world = MakeHealthWorld();
  const ValueId tokenless = world.repo->RegisterValue(3, TokenSet(), "");
  ValueNeighborhoods neighborhoods(world.repo.get());
  for (int attr = 0; attr < world.repo->num_attributes(); ++attr) {
    for (ValueId center = 0; center < world.repo->domain_size(attr);
         ++center) {
      EXPECT_EQ(neighborhoods.Neighborhood(attr, center),
                BruteForceList(*world.repo, attr, center))
          << "attr=" << attr << " center=" << center;
    }
  }
  // A token-less centre lists the token-less values, at distance 0.
  const std::vector<std::pair<double, ValueId>> expected = {{0.0, tokenless}};
  EXPECT_EQ(neighborhoods.Neighborhood(3, tokenless), expected);
}

TEST(ValueNeighborhoodsTest, SlicesMatchBruteForce) {
  ToyWorld world = MakeHealthWorld();
  world.repo->RegisterValue(3, TokenSet(), "");
  ValueNeighborhoods neighborhoods(world.repo.get());
  const std::vector<Interval> deps = {
      Interval::Of(0.0, 0.3), Interval::Of(0.2, 0.6), Interval::Of(0.0, 0.8),
      Interval::Of(0.5, 1.0), Interval::Of(1.0, 1.0), Interval::Of(0.0, 1.0),
      Interval::Of(0.6, 0.6)};
  CandidateCounter counts;
  for (int attr : {1, 2, 3}) {
    const size_t n = world.repo->domain_size(attr);
    for (ValueId center = 0; center < n; ++center) {
      // Every dependent interval votes into one counter, as the selected
      // rules of one arrival do.
      counts.Fit(n);
      std::vector<uint32_t> tally(n, 0);
      for (const Interval& dep : deps) {
        neighborhoods.AccumulateRange(attr, center, dep, &counts);
        for (ValueId v = 0; v < n; ++v) {
          tally[v] += dep.Contains(
              JaccardDistance(world.repo->value_tokens(attr, center),
                              world.repo->value_tokens(attr, v)));
        }
      }
      uint64_t total = 0;
      for (ValueId v = 0; v < n; ++v) {
        EXPECT_EQ(counts.count(v), tally[v])
            << "attr=" << attr << " center=" << center << " v=" << v;
        total += tally[v];
      }
      EXPECT_EQ(counts.total(), total);
      counts.Clear();
    }
  }
}

// Domain growth needs no explicit invalidation: the lists notice the new
// domain size themselves.
TEST(ValueNeighborhoodsTest, RegisteredValueIsCountedWithoutInvalidate) {
  ToyWorld world = MakeHealthWorld();
  const int attr = 3;
  ValueNeighborhoods neighborhoods(world.repo.get());
  Tokenizer tok(world.dict.get());
  const ValueId center = world.repo->FindValue(attr, tok.Tokenize("eye drop"));
  ASSERT_NE(center, kInvalidValueId);
  const Interval near = Interval::Of(0.0, 0.8);
  const Interval far = Interval::Of(1.0, 1.0);
  CandidateCounter counts;
  counts.Fit(world.repo->domain_size(attr));
  neighborhoods.AccumulateRange(attr, center, near, &counts);  // builds lists
  counts.Clear();

  // Shares "drop" with the centre, at distance 2/3.
  const ValueId sharing =
      world.repo->RegisterValue(attr, tok.Tokenize("drop cloth"), "drop cloth");
  // Shares no token with it, at distance 1.
  const ValueId disjoint = world.repo->RegisterValue(
      attr, tok.Tokenize("brand new treatment"), "brand new treatment");
  counts.Fit(world.repo->domain_size(attr));
  neighborhoods.AccumulateRange(attr, center, near, &counts);
  EXPECT_EQ(counts.count(sharing), 1u);
  EXPECT_EQ(counts.count(disjoint), 0u);
  counts.Clear();
  counts.Fit(world.repo->domain_size(attr));
  neighborhoods.AccumulateRange(attr, center, far, &counts);
  EXPECT_EQ(counts.count(sharing), 0u);
  EXPECT_EQ(counts.count(disjoint), 1u);
  counts.Clear();
  EXPECT_EQ(neighborhoods.Neighborhood(attr, center),
            BruteForceList(*world.repo, attr, center));
  EXPECT_EQ(neighborhoods.Neighborhood(attr, sharing),
            BruteForceList(*world.repo, attr, sharing));
}

TEST(CandidateCounterTest, FinalizeNormalisesCapsAndDrains) {
  CandidateCounter counts;
  counts.Fit(6);
  // Votes: vid 4 x3, vid 1 x2, vids 0/5 x1 (tie broken by ascending vid).
  for (ValueId vid : {4, 1, 4, 5, 0, 1, 4}) {
    counts.Add(vid);
  }
  std::vector<ImputedTuple::Candidate> all = FinalizeCandidates(&counts, 8);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_TRUE(counts.empty());
  for (ValueId vid = 0; vid < 6; ++vid) {
    EXPECT_EQ(counts.count(vid), 0u);
  }
  const std::vector<std::pair<ValueId, double>> expected = {
      {4, 3.0 / 7.0}, {1, 2.0 / 7.0}, {0, 1.0 / 7.0}, {5, 1.0 / 7.0}};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(all[i].vid, expected[i].first);
    EXPECT_EQ(all[i].prob, expected[i].second);
  }
  // Reused after the drain: the cap keeps the top 3 (vid 0 wins the tie
  // over vid 5) and renormalises over the kept mass.
  for (ValueId vid : {4, 1, 4, 5, 0, 1, 4}) {
    counts.Add(vid);
  }
  std::vector<ImputedTuple::Candidate> capped = FinalizeCandidates(&counts, 3);
  ASSERT_EQ(capped.size(), 3u);
  EXPECT_EQ(capped[2].vid, 0u);
  EXPECT_DOUBLE_EQ(capped[0].prob + capped[1].prob + capped[2].prob, 1.0);
  EXPECT_DOUBLE_EQ(capped[0].prob, 0.5);
}

// FinalizeCandidates over a materialised count vector, as it was before the
// counter had a shared base: every value with a non-zero count, sorted by
// (probability desc, ValueId asc), cut to `cap` and renormalised over the
// kept mass.
std::vector<ImputedTuple::Candidate> DenseReferenceFinalize(
    const std::vector<uint32_t>& counts, int cap) {
  std::vector<ImputedTuple::Candidate> out;
  uint64_t total = 0;
  for (ValueId vid = 0; vid < counts.size(); ++vid) {
    if (counts[vid] > 0) {
      total += counts[vid];
      out.push_back({vid, static_cast<double>(counts[vid])});
    }
  }
  for (ImputedTuple::Candidate& c : out) {
    c.prob /= static_cast<double>(total);
  }
  std::sort(out.begin(), out.end(),
            [](const ImputedTuple::Candidate& a,
               const ImputedTuple::Candidate& b) {
              return a.prob != b.prob ? a.prob > b.prob : a.vid < b.vid;
            });
  if (static_cast<int>(out.size()) > cap) {
    out.resize(cap);
    double kept = 0.0;
    for (const ImputedTuple::Candidate& c : out) {
      kept += c.prob;
    }
    for (ImputedTuple::Candidate& c : out) {
      c.prob /= kept;
    }
  }
  return out;
}

TEST(CandidateCounterTest, FinalizeMatchesDenseReference) {
  std::mt19937 rng(7);
  CandidateCounter counts;
  bool saw_domain_within_cap = false;
  bool saw_count_dropped_to_zero = false;
  bool saw_base_tie = false;
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t n = 1 + rng() % 12;
    const int cap = 1 + static_cast<int>(rng() % 14);
    const uint32_t base = rng() % 4;
    counts.Fit(n);
    for (uint32_t b = 0; b < base; ++b) {
      counts.AddAll();
    }
    std::vector<uint32_t> dense(n, base);
    bool untouched = false;
    bool returned_to_base = false;
    for (ValueId vid = 0; vid < n; ++vid) {
      switch (rng() % 4) {
        case 0:
          untouched = true;
          break;
        case 1: {
          const uint32_t up = 1 + rng() % 3;
          for (uint32_t k = 0; k < up; ++k) {
            counts.Add(vid);
          }
          dense[vid] += up;
          break;
        }
        case 2: {
          // Lowered, possibly to zero.
          const uint32_t down = base == 0 ? 0 : 1 + rng() % base;
          for (uint32_t k = 0; k < down; ++k) {
            counts.Remove(vid);
          }
          dense[vid] -= down;
          saw_count_dropped_to_zero |= down > 0 && dense[vid] == 0;
          break;
        }
        default:
          // Adjusted, then back at the base.
          counts.Add(vid);
          counts.Remove(vid);
          returned_to_base = true;
          break;
      }
    }
    for (ValueId vid = 0; vid < n; ++vid) {
      ASSERT_EQ(counts.count(vid), dense[vid]) << "trial " << trial;
    }
    saw_domain_within_cap |= base > 0 && n <= static_cast<size_t>(cap);
    saw_base_tie |= base > 0 && untouched && returned_to_base;
    const std::vector<ImputedTuple::Candidate> want =
        DenseReferenceFinalize(dense, cap);
    const std::vector<ImputedTuple::Candidate> got =
        FinalizeCandidates(&counts, cap);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].vid, want[i].vid) << "trial " << trial << " rank " << i;
      // Bit-identical, not merely close.
      EXPECT_EQ(got[i].prob, want[i].prob)
          << "trial " << trial << " rank " << i;
    }
    EXPECT_TRUE(counts.empty());
  }
  EXPECT_TRUE(saw_domain_within_cap);
  EXPECT_TRUE(saw_count_dropped_to_zero);
  EXPECT_TRUE(saw_base_tie);
}

/// Exposes the engine's index-join imputation for direct comparison.
class ImputingEngine : public TerIdsEngine {
 public:
  using TerIdsEngine::TerIdsEngine;
  std::vector<ImputedTuple::ImputedAttr> ImputeNow(const Record& r) {
    return Impute(r, nullptr);
  }
};

// Regression: an absorbed sample can widen a rule's dependent interval far
// past the distances the cached lists were first used at. Equation 3 then
// admits candidates up to distance 1, and the engine must keep agreeing
// with a full domain scan.
TEST(ValueNeighborhoodsTest, AbsorbWideningMatchesFullScan) {
  ToyWorld world = MakeHealthWorld();
  CddRule rule;  // symptom within 0.5 -> diagnosis within [0, 0.2]
  rule.dependent = 2;
  rule.det_mask = 1u << 1;
  rule.determinants.emplace_back(1, AttrConstraint::MakeInterval(0.0, 0.5));
  rule.dep_interval = Interval::Of(0.0, 0.2);
  const EngineConfig config;
  ImputingEngine engine(world.repo.get(), config, 2, {rule});
  const Record probe =
      world.Make(1, {"male", "loss of weight blurred vision", "-", "-"});
  // Builds the lists while the rule only reaches distance 0.2.
  ASSERT_EQ(engine.ImputeNow(probe).size(), 1u);

  // Same symptoms as a diabetes sample but a diagnosis at distance 1: the
  // miner widens the rule's dependent interval to [0, 1].
  const Record widening = world.Make(
      2000, {"male", "loss of weight blurred vision", "conjunctivitis",
             "drug therapy"});
  ASSERT_TRUE(engine.AbsorbRepositoryBatch({widening}).ok());
  ASSERT_GT(engine.rules()[0].dep_interval.hi, 0.2);

  RuleBasedImputer linear(world.repo.get(), engine.rules(),
                          config.max_candidates_per_attr);
  const auto want = linear.ImputeRecord(probe, nullptr);
  const auto got = engine.ImputeNow(probe);
  ASSERT_EQ(want.size(), 1u);
  ASSERT_GT(want[0].candidates.size(), 1u);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got[0].candidates.size(), want[0].candidates.size());
  for (size_t c = 0; c < want[0].candidates.size(); ++c) {
    EXPECT_EQ(got[0].candidates[c].vid, want[0].candidates[c].vid);
    EXPECT_EQ(got[0].candidates[c].prob, want[0].candidates[c].prob);
  }
}

void ExpectSameImputation(const std::vector<ImputedTuple::ImputedAttr>& got,
                          const std::vector<ImputedTuple::ImputedAttr>& want,
                          int trial) {
  ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].attr, want[i].attr) << "trial " << trial;
    ASSERT_EQ(got[i].candidates.size(), want[i].candidates.size())
        << "trial " << trial << " attr " << want[i].attr;
    for (size_t c = 0; c < want[i].candidates.size(); ++c) {
      EXPECT_EQ(got[i].candidates[c].vid, want[i].candidates[c].vid)
          << "trial " << trial << " rank " << c;
      // Bit-identical, not merely close.
      EXPECT_EQ(got[i].candidates[c].prob, want[i].candidates[c].prob)
          << "trial " << trial << " rank " << c;
    }
  }
}

// The engine's postings join must impute exactly what the linear scan of
// every (rule, sample) pair imputes, on every path of the join: a constant
// start, an interval below 1 (also for a token-less probe value), the scan
// for intervals reaching 1.0, several determinants, token-less domain
// values and samples absorbed after the postings were built.
TEST(DeterminantJoinTest, MatchesLinearScanOnEveryPath) {
  ToyWorld world = MakeHealthWorld();
  Repository& repo = *world.repo;
  for (const std::vector<std::string>& texts :
       {std::vector<std::string>{"female", "", "flu", "rest"},
        std::vector<std::string>{"male", "fever cough", "flu", ""},
        std::vector<std::string>{"male", "", "diabetes", "drug therapy"}}) {
    ASSERT_TRUE(repo.AddSample(world.Make(1100, texts)).ok());
  }
  const int d = repo.num_attributes();
  std::mt19937 rng(7);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  const std::vector<double> his = {0.0, 0.3, 0.5, 0.7, 0.9, 1.0};
  const std::vector<Interval> deps = {
      Interval::Of(0.0, 0.0), Interval::Of(0.0, 0.5), Interval::Of(0.2, 0.8),
      Interval::Of(0.0, 1.0), Interval::Of(0.6, 1.0)};
  const EngineConfig config;
  const int max_candidates = config.max_candidates_per_attr;

  TerIdsEngine::JoinPaths paths;
  bool saw_several = false;
  bool saw_tokenless_value = false;
  bool saw_absorbed = false;
  int imputed_trials = 0;
  const int kTrials = 240;
  for (int trial = 0; trial < kTrials; ++trial) {
    // A probe: a sample with some values swapped, emptied or missing.
    Record probe = repo.sample(pick(repo.num_samples()));
    probe.rid = trial;
    for (int x = 0; x < d; ++x) {
      switch (rng() % 8) {
        case 0:
          probe.values[x] = repo.sample(pick(repo.num_samples())).values[x];
          break;
        case 1:
          probe.values[x].text.clear();
          probe.values[x].tokens = TokenSet();
          break;
        case 2:
          probe.values[x] = AttrValue::Missing();
          break;
        default:
          break;
      }
    }
    const int j = static_cast<int>(pick(d));
    probe.values[j] = AttrValue::Missing();

    std::vector<CddRule> rules;
    for (int k = 0; k < 6; ++k) {
      CddRule rule;
      rule.dependent = k < 4 ? j : static_cast<int>(pick(d));
      rule.dep_interval = deps[pick(deps.size())];
      std::vector<int> attrs;
      for (int x = 0; x < d; ++x) {
        if (x != rule.dependent) {
          attrs.push_back(x);
        }
      }
      std::shuffle(attrs.begin(), attrs.end(), rng);
      attrs.resize(pick(3));
      std::sort(attrs.begin(), attrs.end());
      for (int x : attrs) {
        rule.det_mask |= 1u << x;
        const ValueId own = probe.values[x].missing
                                ? kInvalidValueId
                                : repo.FindValue(x, probe.values[x].tokens);
        if (rng() % 3 == 0) {
          rule.determinants.emplace_back(
              x, AttrConstraint::MakeConstant(
                     own != kInvalidValueId && rng() % 4 != 0
                         ? own
                         : static_cast<ValueId>(pick(repo.domain_size(x)))));
        } else {
          const double hi = his[pick(his.size())];
          rule.determinants.emplace_back(
              x, AttrConstraint::MakeInterval(rng() % 3 == 0 ? hi / 2 : 0.0,
                                              hi));
        }
      }
      rules.push_back(std::move(rule));
    }

    ImputingEngine engine(&repo, config, 2, rules);
    const auto want = RuleBasedImputer(&repo, rules, max_candidates)
                          .ImputeRecord(probe, nullptr);
    ExpectSameImputation(engine.ImputeNow(probe), want, trial);
    imputed_trials += !want.empty();

    const size_t first_absorbed = repo.num_samples();
    if (trial % 3 == 0) {
      // A complete copy of the probe joins the repository after the
      // postings were built; the engine must find it on the next call.
      Record sample = probe;
      sample.rid = 5000 + trial;
      const Record& donor = repo.sample(pick(repo.num_samples()));
      for (int x = 0; x < d; ++x) {
        if (sample.values[x].missing) {
          sample.values[x] = donor.values[x];
        }
      }
      ASSERT_TRUE(engine.AbsorbRepositoryBatch({sample}).ok());
      const auto want_after =
          RuleBasedImputer(&repo, engine.rules(), max_candidates)
              .ImputeRecord(probe, nullptr);
      ExpectSameImputation(engine.ImputeNow(probe), want_after, trial);
    }

    for (const CddRule& rule : engine.rules()) {
      if (!rule.ApplicableTo(probe)) {
        continue;
      }
      for (size_t i = 0; i < repo.num_samples(); ++i) {
        if (!rule.DeterminantsSatisfied(probe, repo, i)) {
          continue;
        }
        saw_several |= rule.determinants.size() >= 2;
        saw_absorbed |= i >= first_absorbed;
        for (const auto& [x, constraint] : rule.determinants) {
          saw_tokenless_value |=
              repo.value_tokens(x, repo.sample_value_id(i, x)).empty();
        }
      }
    }
    const TerIdsEngine::JoinPaths& p = engine.join_paths();
    paths.constant += p.constant;
    paths.interval += p.interval;
    paths.tokenless_probe += p.tokenless_probe;
    paths.scan += p.scan;
  }
  EXPECT_GT(imputed_trials, kTrials / 4);
  EXPECT_GT(paths.constant, 0u);
  EXPECT_GT(paths.interval, 0u);
  EXPECT_GT(paths.tokenless_probe, 0u);
  EXPECT_GT(paths.scan, 0u);
  EXPECT_TRUE(saw_several);
  EXPECT_TRUE(saw_tokenless_value);
  EXPECT_TRUE(saw_absorbed);
}

// AbsorbRepositoryBatch finds the pairs that widen rules through the
// determinant join. It must count `support` and widen `dep_interval`
// exactly as a naive scan that absorbs one record at a time, checking each
// against every sample before it. The CDD-index encodes only determinant
// geometry, so it is never rebuilt, and its rule selection must still equal
// a freshly built index's. The batches cover constant-start, interval-start
// and scan rules, token-less values, records that pair with earlier records
// of their own batch, and a batch cut short by an incomplete record.
TEST(AbsorbJoinTest, MatchesOneAtATimeScan) {
  ToyWorld world = MakeHealthWorld();
  Repository& repo = *world.repo;
  const int d = repo.num_attributes();
  std::mt19937 rng(11);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  const std::vector<double> his = {0.0, 0.3, 0.5, 0.7, 0.9, 1.0};
  const std::vector<Interval> deps = {
      Interval::Of(0.0, 0.0), Interval::Of(0.0, 0.3), Interval::Of(0.2, 0.8),
      Interval::Of(0.0, 1.0)};
  enum Start { kConstantStart, kIntervalStart, kScan };
  auto start_of = [](const CddRule& rule) {
    bool below_one = false;
    for (const auto& [x, constraint] : rule.determinants) {
      if (constraint.kind == AttrConstraint::Kind::kConstant) {
        return kConstantStart;
      }
      below_one |= constraint.interval.hi < 1.0;
    }
    return below_one ? kIntervalStart : kScan;
  };

  bool saw_start[3] = {false, false, false};
  bool saw_tokenless_probe = false;
  bool saw_within_batch = false;
  bool saw_cut_batch = false;
  bool saw_selection = false;
  int widening_batches = 0;
  const int kTrials = 150;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<CddRule> rules;
    for (int k = 0; k < 8; ++k) {
      CddRule rule;
      rule.dependent = static_cast<int>(pick(d));
      rule.dep_interval = deps[pick(deps.size())];
      rule.support = static_cast<int>(pick(3));
      std::vector<int> attrs;
      for (int x = 0; x < d; ++x) {
        if (x != rule.dependent) {
          attrs.push_back(x);
        }
      }
      std::shuffle(attrs.begin(), attrs.end(), rng);
      attrs.resize(pick(3));
      std::sort(attrs.begin(), attrs.end());
      for (int x : attrs) {
        rule.det_mask |= 1u << x;
        if (rng() % 3 == 0) {
          rule.determinants.emplace_back(
              x, AttrConstraint::MakeConstant(
                     repo.sample_value_id(pick(repo.num_samples()), x)));
        } else {
          const double hi = his[pick(his.size())];
          rule.determinants.emplace_back(
              x, AttrConstraint::MakeInterval(rng() % 3 == 0 ? hi / 2 : 0.0,
                                              hi));
        }
      }
      rules.push_back(std::move(rule));
    }
    TerIdsEngine engine(&repo, EngineConfig{}, 2, rules);

    // Each record copies a sample or an earlier record of the batch, with
    // some values swapped or emptied; one in five batches holds an
    // incomplete record that stops the absorb.
    std::vector<Record> batch;
    const size_t batch_size = 1 + pick(4);
    const size_t cut = rng() % 5 == 0 ? pick(batch_size) : batch_size;
    for (size_t b = 0; b < batch_size; ++b) {
      Record record = !batch.empty() && rng() % 2 == 0
                          ? batch[pick(batch.size())]
                          : repo.sample(pick(repo.num_samples()));
      record.rid = 7000 + 10 * trial + static_cast<int64_t>(b);
      for (int x = 0; x < d; ++x) {
        switch (rng() % 6) {
          case 0:
            record.values[x] = repo.sample(pick(repo.num_samples())).values[x];
            break;
          case 1:
            record.values[x].text.clear();
            record.values[x].tokens = TokenSet();
            break;
          default:
            break;
        }
      }
      if (b == cut) {
        record.values[pick(d)] = AttrValue::Missing();
      }
      batch.push_back(std::move(record));
    }

    const size_t first = repo.num_samples();
    const Status status = engine.AbsorbRepositoryBatch(batch);
    ASSERT_EQ(status.ok(), cut == batch_size) << "trial " << trial;
    ASSERT_EQ(repo.num_samples(), first + std::min(cut, batch_size));

    // The reference: one record at a time, against every earlier sample.
    std::vector<CddRule> want = rules;
    bool widened = false;
    for (size_t idx = first; idx < repo.num_samples(); ++idx) {
      const Record& probe = repo.sample(idx);
      for (CddRule& rule : want) {
        for (size_t other = 0; other < idx; ++other) {
          if (!rule.DeterminantsSatisfied(probe, repo, other)) {
            continue;
          }
          const double dep_dist =
              JaccardDistance(probe.values[rule.dependent].tokens,
                              repo.sample(other).values[rule.dependent].tokens);
          if (!rule.dep_interval.Contains(dep_dist)) {
            rule.dep_interval.Cover(dep_dist);
            widened = true;
          }
          ++rule.support;
          saw_start[start_of(rule)] = true;
          saw_within_batch |= other >= first;
          saw_cut_batch |= cut < batch_size;
          for (const auto& [x, constraint] : rule.determinants) {
            saw_tokenless_probe |= probe.values[x].tokens.empty();
          }
        }
      }
    }
    ASSERT_EQ(engine.rules().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      const CddRule& got = engine.rules()[i];
      EXPECT_EQ(got.support, want[i].support) << "trial " << trial;
      // Bit-identical, not merely close.
      EXPECT_EQ(got.dep_interval.lo, want[i].dep_interval.lo)
          << "trial " << trial;
      EXPECT_EQ(got.dep_interval.hi, want[i].dep_interval.hi)
          << "trial " << trial;
    }
    CddIndex fresh(&repo, &engine.rules());
    std::vector<Record> probes = batch;
    probes.push_back(repo.sample(pick(repo.num_samples())));
    for (const Record& probe : probes) {
      for (int j = 0; j < d; ++j) {
        Record missing = probe;
        missing.values[j] = AttrValue::Missing();
        const std::vector<int> selected = fresh.SelectRules(missing, j);
        EXPECT_EQ(engine.cdd_index().SelectRules(missing, j), selected)
            << "trial " << trial << " attr " << j;
        saw_selection |= !selected.empty();
      }
    }
    widening_batches += widened;
  }
  EXPECT_TRUE(saw_start[kConstantStart]);
  EXPECT_TRUE(saw_start[kIntervalStart]);
  EXPECT_TRUE(saw_start[kScan]);
  EXPECT_TRUE(saw_tokenless_probe);
  EXPECT_TRUE(saw_within_batch);
  EXPECT_TRUE(saw_cut_batch);
  EXPECT_TRUE(saw_selection);
  EXPECT_GT(widening_batches, 0);
  EXPECT_LT(widening_batches, kTrials);
}

TEST(ConstraintImputerTest, UsesMostRecentCompleteDonor) {
  ToyWorld world = MakeHealthWorld();
  ConstraintImputer imputer(world.repo.get(), /*history_cap=*/10);
  Record first = world.Make(1, {"male", "fever", "flu", "rest"});
  first.stream_id = 0;
  Record second =
      world.Make(2, {"female", "cough", "pneumonia", "antibiotics"});
  second.stream_id = 0;
  imputer.OnArrival(first);
  imputer.OnArrival(second);

  Record incomplete = world.Make(3, {"male", "headache", "-", "-"});
  incomplete.stream_id = 0;
  auto imputed = imputer.ImputeRecord(incomplete, nullptr);
  ASSERT_EQ(imputed.size(), 2u);
  // Sequential semantics [43]: the donor is the most recent (rid 2).
  EXPECT_EQ(world.repo->domain(2).text(imputed[0].candidates[0].vid),
            "pneumonia");
  EXPECT_DOUBLE_EQ(imputed[0].candidates[0].prob, 1.0);
}

TEST(ConstraintImputerTest, IgnoresOtherStreamsAndIncompleteDonors) {
  ToyWorld world = MakeHealthWorld();
  ConstraintImputer imputer(world.repo.get(), 10);
  Record other_stream = world.Make(1, {"male", "fever", "flu", "rest"});
  other_stream.stream_id = 1;
  Record incomplete_donor = world.Make(2, {"male", "fever", "-", "rest"});
  incomplete_donor.stream_id = 0;
  imputer.OnArrival(other_stream);
  imputer.OnArrival(incomplete_donor);

  Record probe = world.Make(3, {"male", "cough", "-", "rest"});
  probe.stream_id = 0;
  EXPECT_TRUE(imputer.ImputeRecord(probe, nullptr).empty());
}

TEST(ConstraintImputerTest, EvictionForgetsExpiredDonors) {
  ToyWorld world = MakeHealthWorld();
  ConstraintImputer imputer(world.repo.get(), 10);
  Record donor = world.Make(1, {"male", "fever", "flu", "rest"});
  donor.stream_id = 0;
  imputer.OnArrival(donor);
  imputer.OnEvict(donor);
  Record probe = world.Make(2, {"male", "cough", "-", "rest"});
  probe.stream_id = 0;
  EXPECT_TRUE(imputer.ImputeRecord(probe, nullptr).empty());
}

}  // namespace
}  // namespace terids
