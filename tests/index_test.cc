#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "index/cdd_index.h"
#include "rules/rule_miner.h"
#include "test_util.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

class CddIndexTest : public ::testing::Test {
 protected:
  CddIndexTest() : world_(MakeHealthWorld()) {
    MinerOptions opts;
    opts.min_support = 2;
    opts.min_const_freq = 2;
    RuleMiner miner(world_.repo.get(), opts);
    rules_ = miner.MineCdds();
    index_ = std::make_unique<CddIndex>(world_.repo.get(), &rules_);
    index_->Build();
  }

  std::vector<int> BruteForceSelect(const Record& r, int dependent) const {
    std::vector<int> out;
    for (size_t i = 0; i < rules_.size(); ++i) {
      const CddRule& rule = rules_[i];
      if (rule.dependent != dependent || !rule.ApplicableTo(r)) {
        continue;
      }
      // Constant constraints must match the probe exactly (the index
      // verifies the probe side; interval rules pass selection).
      bool ok = true;
      for (const auto& [attr, c] : rule.determinants) {
        if (c.kind == AttrConstraint::Kind::kConstant &&
            !(r.values[attr].tokens ==
              world_.repo->domain(attr).tokens(c.constant_vid))) {
          ok = false;
        }
      }
      if (ok) out.push_back(static_cast<int>(i));
    }
    return out;
  }

  ToyWorld world_;
  std::vector<CddRule> rules_;
  std::unique_ptr<CddIndex> index_;
};

TEST_F(CddIndexTest, MinesNonTrivialRuleSet) {
  EXPECT_GT(rules_.size(), 4u);
  EXPECT_GT(index_->num_groups(), 1u);
}

TEST_F(CddIndexTest, SelectRulesMatchesBruteForce) {
  const std::vector<Record> probes = {
      world_.Make(1, {"male", "blurred vision", "-", "drug therapy"}),
      world_.Make(2, {"female", "fever cough", "-", "-"}),
      world_.Make(3, {"male", "loss of weight", "-", "dietary therapy"}),
      world_.Make(4, {"female", "-", "-", "eye drop"}),
  };
  for (const Record& r : probes) {
    const ProbeCoords pc = ProbeCoords::Compute(r, *world_.repo);
    for (int j : r.MissingAttributes()) {
      std::vector<int> got = index_->SelectRules(r, pc, j);
      std::sort(got.begin(), got.end());
      std::vector<int> want = BruteForceSelect(r, j);
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << "dependent attr " << j;
    }
  }
}

TEST_F(CddIndexTest, InsertAndRemoveRule) {
  CddRule extra;
  extra.dependent = 3;
  extra.det_mask = 1u << 0;
  extra.determinants.emplace_back(0, AttrConstraint::MakeInterval(0.0, 0.2));
  extra.dep_interval = Interval::Of(0.0, 0.3);
  rules_.push_back(extra);
  const int idx = static_cast<int>(rules_.size()) - 1;
  index_->InsertRule(idx);

  Record r = world_.Make(9, {"male", "fever", "flu", "-"});
  const ProbeCoords pc = ProbeCoords::Compute(r, *world_.repo);
  std::vector<int> got = index_->SelectRules(r, pc, 3);
  EXPECT_NE(std::find(got.begin(), got.end(), idx), got.end());

  EXPECT_TRUE(index_->RemoveRule(idx));
  got = index_->SelectRules(r, pc, 3);
  EXPECT_EQ(std::find(got.begin(), got.end(), idx), got.end());
  EXPECT_FALSE(index_->RemoveRule(idx));
}

TEST(ProbeCoordsTest, MissingAttributesHaveNoCoords) {
  ToyWorld world = MakeHealthWorld();
  Record r = world.Make(1, {"male", "-", "flu", "-"});
  const ProbeCoords pc = ProbeCoords::Compute(r, *world.repo);
  EXPECT_FALSE(pc.missing(0));
  EXPECT_TRUE(pc.missing(1));
  EXPECT_FALSE(pc.missing(2));
  EXPECT_TRUE(pc.missing(3));
  EXPECT_DOUBLE_EQ(
      pc.main(2),
      JaccardDistance(r.values[2].tokens, world.repo->pivot_tokens(2, 0)));
}

}  // namespace
}  // namespace terids
