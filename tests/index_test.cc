#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <tuple>

#include "core/terids_engine.h"
#include "datagen/profiles.h"
#include "eval/experiment.h"
#include "index/cdd_index.h"
#include "rules/rule_miner.h"
#include "test_util.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

/// Rule selection straight from Definition 3, in ascending rule order: the
/// rule's dependent is `dependent`, no determinant is missing in r, and r's
/// value equals each constant token for token (no interned-id lookup).
std::vector<int> BruteForceSelect(const std::vector<CddRule>& rules,
                                  const Repository& repo, const Record& r,
                                  int dependent) {
  std::vector<int> out;
  for (size_t i = 0; i < rules.size(); ++i) {
    const CddRule& rule = rules[i];
    if (rule.dependent != dependent || !rule.ApplicableTo(r)) {
      continue;
    }
    bool ok = true;
    for (const auto& [attr, c] : rule.determinants) {
      if (c.kind == AttrConstraint::Kind::kConstant &&
          !(r.values[attr].tokens == repo.value_tokens(attr, c.constant_vid))) {
        ok = false;
      }
    }
    if (ok) out.push_back(static_cast<int>(i));
  }
  return out;
}

bool HasConstant(const CddRule& rule) {
  return std::any_of(rule.determinants.begin(), rule.determinants.end(),
                     [](const auto& det) {
                       return det.second.kind ==
                              AttrConstraint::Kind::kConstant;
                     });
}

/// The token union of two values: on a generated profile almost never a
/// value of the domain itself.
AttrValue UnionValue(const AttrValue& a, const AttrValue& b) {
  std::vector<Token> tokens(a.tokens.begin(), a.tokens.end());
  tokens.insert(tokens.end(), b.tokens.begin(), b.tokens.end());
  AttrValue v;
  v.text = a.text + " " + b.text;
  v.tokens = TokenSet::FromTokens(std::move(tokens));
  return v;
}

/// FindValue inverts value_tokens on every value of every domain.
void ExpectInterned(const Repository& repo) {
  for (int x = 0; x < repo.num_attributes(); ++x) {
    for (ValueId v = 0; v < repo.domain_size(x); ++v) {
      ASSERT_EQ(repo.FindValue(x, repo.value_tokens(x, v)), v)
          << "attr " << x;
    }
  }
}

class CddIndexTest : public ::testing::Test {
 protected:
  CddIndexTest() : world_(MakeHealthWorld()) {
    MinerOptions opts;
    opts.min_support = 2;
    opts.min_const_freq = 2;
    RuleMiner miner(world_.repo.get(), opts);
    rules_ = miner.MineCdds();
    index_ = std::make_unique<CddIndex>(world_.repo.get(), &rules_);
  }

  ToyWorld world_;
  std::vector<CddRule> rules_;
  std::unique_ptr<CddIndex> index_;
};

TEST_F(CddIndexTest, MinesNonTrivialRuleSet) {
  EXPECT_GT(rules_.size(), 4u);
  EXPECT_TRUE(std::any_of(rules_.begin(), rules_.end(), HasConstant));
}

TEST_F(CddIndexTest, SelectRulesMatchesBruteForce) {
  const std::vector<Record> probes = {
      world_.Make(1, {"male", "blurred vision", "-", "drug therapy"}),
      world_.Make(2, {"female", "fever cough", "-", "-"}),
      world_.Make(3, {"male", "loss of weight", "-", "dietary therapy"}),
      world_.Make(4, {"female", "-", "-", "eye drop"}),
  };
  for (const Record& r : probes) {
    for (int j : r.MissingAttributes()) {
      EXPECT_EQ(index_->SelectRules(r, j),
                BruteForceSelect(rules_, *world_.repo, r, j))
          << "dependent attr " << j;
    }
  }
}

/// Mined rules of a generated profile, on one storage backend. (Songs is
/// left out only because its offline build takes seconds at this scale.)
class MinedSelectTest
    : public ::testing::TestWithParam<std::tuple<std::string, RepoBackend>> {
 protected:
  static ExperimentParams Params() {
    ExperimentParams params;
    params.scale = 0.05;
    return params;
  }

  MinedSelectTest()
      : experiment_(ProfileByName(std::get<0>(GetParam())), Params()),
        repo_(experiment_.BuildRepository(std::get<1>(GetParam()))) {}

  Experiment experiment_;
  std::unique_ptr<Repository> repo_;
};

TEST_P(MinedSelectTest, SelectRulesMatchesBruteForce) {
  const std::vector<CddRule>& rules = experiment_.cdds();
  ASSERT_TRUE(std::any_of(rules.begin(), rules.end(), HasConstant));
  const CddIndex index(repo_.get(), &rules);
  const int d = repo_->num_attributes();
  const std::vector<Record>& sources = experiment_.dataset().source_a;
  const std::vector<Record>& samples = experiment_.dataset().repo_records;
  std::mt19937_64 rng(7);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };

  size_t selected = 0;
  size_t selected_with_constant = 0;
  size_t foreign_values = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Half the probes start from a repository sample, so constants match.
    Record r = trial % 2 == 0 ? samples[pick(samples.size())]
                              : sources[pick(sources.size())];
    const int j = trial % d;  // Each attribute misses in turn.
    r.values[j] = AttrValue::Missing();
    for (int x = 0; x < d; ++x) {
      if (x == j) {
        continue;
      }
      switch (rng() % 8) {
        case 0:  // A second missing attribute.
          r.values[x] = AttrValue::Missing();
          break;
        case 1: {  // A value that is not in dom(A_x).
          const AttrValue& other = samples[pick(samples.size())].values[x];
          AttrValue foreign = UnionValue(r.values[x], other);
          if (repo_->FindValue(x, foreign.tokens) == kInvalidValueId) {
            r.values[x] = std::move(foreign);
            ++foreign_values;
          }
          break;
        }
        default:
          break;
      }
    }
    const std::vector<int> got = index.SelectRules(r, j);
    EXPECT_EQ(got, BruteForceSelect(rules, *repo_, r, j))
        << "trial " << trial << " dependent attr " << j;
    selected += got.size();
    for (int rule_idx : got) {
      selected_with_constant += HasConstant(rules[rule_idx]);
    }
  }
  EXPECT_GT(selected, 0u);
  EXPECT_GT(selected_with_constant, 0u);
  EXPECT_GT(foreign_values, 0u);
}

TEST_P(MinedSelectTest, FindValueInvertsValueTokensAcrossAbsorb) {
  ExpectInterned(*repo_);
  // New samples carrying values no domain holds yet; on the snapshot
  // backend they land in the overlay.
  const std::vector<Record>& samples = experiment_.dataset().repo_records;
  std::vector<Record> batch;
  for (size_t i = 0; i + 1 < samples.size() && batch.size() < 10; i += 2) {
    Record r = samples[i];
    r.rid = (int64_t{1} << 40) + static_cast<int64_t>(i);
    for (int x = 0; x < repo_->num_attributes(); ++x) {
      r.values[x] = UnionValue(samples[i].values[x], samples[i + 1].values[x]);
    }
    batch.push_back(std::move(r));
  }
  std::vector<size_t> before(repo_->num_attributes());
  for (int x = 0; x < repo_->num_attributes(); ++x) {
    before[x] = repo_->domain_size(x);
  }
  TerIdsEngine engine(repo_.get(), experiment_.MakeConfig(), 2,
                      experiment_.cdds());
  ASSERT_TRUE(engine.AbsorbRepositoryBatch(batch).ok());
  bool grew = false;
  for (int x = 0; x < repo_->num_attributes(); ++x) {
    grew |= repo_->domain_size(x) > before[x];
  }
  EXPECT_TRUE(grew);
  ExpectInterned(*repo_);
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesAndBackends, MinedSelectTest,
    ::testing::Combine(
        ::testing::Values("Citations", "Anime", "Bikes", "EBooks"),
        ::testing::Values(RepoBackend::kInMemory, RepoBackend::kMmapSnapshot)),
    [](const ::testing::TestParamInfo<MinedSelectTest::ParamType>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == RepoBackend::kInMemory ? "_memory"
                                                                : "_mmap");
    });

}  // namespace
}  // namespace terids
