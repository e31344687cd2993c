#include <gtest/gtest.h>

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
  RuleBasedImputer imputer(world_.repo.get(), rules_, RuleImputerOptions{});
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
  RuleBasedImputer imputer(world_.repo.get(), rules_, RuleImputerOptions{});
  Record r = world_.Make(2, {"male", "fever", "flu", "rest"});
  EXPECT_TRUE(imputer.ImputeRecord(r, nullptr).empty());
}

TEST_F(RuleBasedImputerTest, CoordFilterDoesNotChangeCandidates) {
  // The sorted-coordinate prefilter is a pure optimization: candidate
  // distributions must be identical with and without it.
  RuleImputerOptions with_filter;
  with_filter.use_coord_filter = true;
  RuleImputerOptions without_filter;
  without_filter.use_coord_filter = false;
  RuleBasedImputer fast(world_.repo.get(), rules_, with_filter);
  RuleBasedImputer slow(world_.repo.get(), rules_, without_filter);
  const std::vector<Record> probes = {
      world_.Make(1, {"male", "loss of weight blurred vision", "-", "-"}),
      world_.Make(2, {"female", "fever cough", "-", "rest"}),
      world_.Make(3, {"male", "-", "diabetes", "-"}),
  };
  for (const Record& r : probes) {
    auto a = fast.ImputeRecord(r, nullptr);
    auto b = slow.ImputeRecord(r, nullptr);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].candidates.size(), b[i].candidates.size());
      for (size_t c = 0; c < a[i].candidates.size(); ++c) {
        EXPECT_EQ(a[i].candidates[c].vid, b[i].candidates[c].vid);
        EXPECT_DOUBLE_EQ(a[i].candidates[c].prob, b[i].candidates[c].prob);
      }
    }
  }
}

TEST_F(RuleBasedImputerTest, CostAccountingSplitsPhases) {
  RuleBasedImputer imputer(world_.repo.get(), rules_, RuleImputerOptions{});
  Record r = world_.Make(1, {"male", "loss of weight", "-", "-"});
  CostBreakdown cost;
  imputer.ImputeRecord(r, &cost);
  EXPECT_GT(cost.cdd_select_seconds + cost.impute_seconds, 0.0);
  EXPECT_DOUBLE_EQ(cost.er_seconds, 0.0);
}

TEST_F(RuleBasedImputerTest, RulesForDependentPartitionsRuleSet) {
  RuleBasedImputer imputer(world_.repo.get(), rules_, RuleImputerOptions{});
  size_t total = 0;
  for (int j = 0; j < world_.repo->num_attributes(); ++j) {
    for (int idx : imputer.RulesForDependent(j)) {
      EXPECT_EQ(imputer.rules()[idx].dependent, j);
      ++total;
    }
  }
  EXPECT_EQ(total, rules_.size());
}

TEST(ValueNeighborhoodsTest, SlicesMatchBruteForce) {
  ToyWorld world = MakeHealthWorld();
  std::vector<double> radius(world.repo->num_attributes(), 0.8);
  ValueNeighborhoods neighborhoods(world.repo.get(), radius);
  const int attr = 2;
  const AttributeDomain& dom = world.repo->domain(attr);
  CandidateCounter counts;
  counts.Fit(dom.size());
  for (ValueId center = 0; center < dom.size(); ++center) {
    for (const Interval dep : {Interval::Of(0.0, 0.3), Interval::Of(0.2, 0.6),
                               Interval::Of(0.0, 0.8)}) {
      neighborhoods.AccumulateRange(attr, center, dep, &counts);
      for (ValueId v = 0; v < dom.size(); ++v) {
        const double dist = JaccardDistance(dom.tokens(center), dom.tokens(v));
        EXPECT_EQ(counts.count(v), dep.Contains(dist) ? 1u : 0u)
            << "center=" << center << " v=" << v << " dist=" << dist;
      }
      counts.Clear();
    }
  }
}

TEST(ValueNeighborhoodsTest, InvalidateRebuildsAfterDomainGrowth) {
  ToyWorld world = MakeHealthWorld();
  std::vector<double> radius(world.repo->num_attributes(), 1.0);
  ValueNeighborhoods neighborhoods(world.repo.get(), radius);
  const size_t before = neighborhoods.Neighborhood(2, 0).size();
  Tokenizer tok(world.dict.get());
  const ValueId added =
      world.repo->RegisterValue(2, tok.Tokenize("brand new diagnosis"), "new");
  // Only the grown attribute's lists are dropped; the new value's own list
  // is built on first use.
  neighborhoods.Invalidate(2);
  EXPECT_EQ(neighborhoods.Neighborhood(2, 0).size(), before + 1);
  EXPECT_EQ(neighborhoods.Neighborhood(2, added).size(), before + 1);
}

TEST(ValueNeighborhoodsTest, SetRadiusRebuildsOnlyChangedAttributes) {
  ToyWorld world = MakeHealthWorld();
  const int d = world.repo->num_attributes();
  std::vector<double> radius(d, 0.0);
  ValueNeighborhoods neighborhoods(world.repo.get(), radius);
  // Radius 0 keeps only exact duplicates: each list is its centre.
  EXPECT_EQ(neighborhoods.Neighborhood(2, 0).size(), 1u);
  radius[2] = 1.0;
  neighborhoods.SetRadius(radius);
  EXPECT_EQ(neighborhoods.Neighborhood(2, 0).size(),
            world.repo->domain_size(2));
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

/// Exposes the engine's index-join imputation for direct comparison.
class ImputingEngine : public TerIdsEngine {
 public:
  using TerIdsEngine::TerIdsEngine;
  std::vector<ImputedTuple::ImputedAttr> ImputeNow(const Record& r) {
    return Impute(r, ProbeCoords::Compute(r, *repo_), nullptr);
  }
};

// Regression: an absorbed sample can widen a rule's dependent interval past
// the neighbourhood radius the engine started with. Equation 3 then admits
// candidates farther away than any cached list reached, so the engine must
// widen its lists to keep agreeing with a full domain scan.
TEST(ValueNeighborhoodsTest, AbsorbWideningBeyondRadiusMatchesFullScan) {
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
  // Fills the radius-0.2 lists: single-word diagnoses only reach themselves.
  ASSERT_EQ(engine.ImputeNow(probe).size(), 1u);

  // Same symptoms as a diabetes sample but a diagnosis at distance 1: the
  // miner widens the rule's dependent interval to [0, 1].
  const Record widening = world.Make(
      2000, {"male", "loss of weight blurred vision", "conjunctivitis",
             "drug therapy"});
  ASSERT_TRUE(engine.AbsorbRepositoryBatch({widening}).ok());
  ASSERT_GT(engine.rules()[0].dep_interval.hi, 0.2);

  RuleImputerOptions full_scan;
  full_scan.use_coord_filter = false;
  full_scan.max_candidates_per_attr = config.max_candidates_per_attr;
  RuleBasedImputer linear(world.repo.get(), engine.rules(), full_scan);
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

TEST(ConstraintImputerTest, UsesMostRecentCompleteDonor) {
  ToyWorld world = MakeHealthWorld();
  ConstraintImputer imputer(world.repo.get(), /*history_cap=*/10);
  Record first = world.Make(1, {"male", "fever", "flu", "rest"});
  first.stream_id = 0;
  Record second = world.Make(2, {"female", "cough", "pneumonia", "antibiotics"});
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
