#include <gtest/gtest.h>

#include "repo/repository.h"
#include "test_util.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

TEST(AttributeDomainTest, DeduplicatesByTokenSet) {
  ToyWorld world = MakeHealthWorld();
  // "diabetes" appears in several samples but the domain holds it once.
  const AttributeDomain& dom = world.repo->domain(2);
  int diabetes_count = 0;
  for (ValueId v = 0; v < dom.size(); ++v) {
    if (dom.text(v) == "diabetes") ++diabetes_count;
  }
  EXPECT_EQ(diabetes_count, 1);
}

TEST(AttributeDomainTest, FrequencyCountsSamples) {
  ToyWorld world = MakeHealthWorld();
  const AttributeDomain& dom = world.repo->domain(2);
  ValueId diabetes = kInvalidValueId;
  for (ValueId v = 0; v < dom.size(); ++v) {
    if (dom.text(v) == "diabetes") diabetes = v;
  }
  ASSERT_NE(diabetes, kInvalidValueId);
  EXPECT_EQ(dom.frequency(diabetes), 4);  // 4 diabetes samples in the toy set.
}

TEST(RepositoryTest, RejectsIncompleteSamples) {
  ToyWorld world = MakeHealthWorld();
  Record bad = world.Make(99, {"male", "-", "flu", "rest"});
  EXPECT_FALSE(world.repo->AddSample(bad).ok());
}

TEST(RepositoryTest, RejectsWrongArity) {
  ToyWorld world = MakeHealthWorld();
  Record bad;
  bad.rid = 99;
  bad.values.resize(2);
  EXPECT_FALSE(world.repo->AddSample(bad).ok());
}

TEST(RepositoryTest, SampleValueIdsConsistentWithDomains) {
  ToyWorld world = MakeHealthWorld();
  for (size_t i = 0; i < world.repo->num_samples(); ++i) {
    for (int x = 0; x < world.repo->num_attributes(); ++x) {
      const ValueId vid = world.repo->sample_value_id(i, x);
      EXPECT_TRUE(world.repo->domain(x).tokens(vid) ==
                  world.repo->sample(i).values[x].tokens);
    }
  }
}

TEST(RepositoryTest, PivotDistanceMatchesDirectComputation) {
  ToyWorld world = MakeHealthWorld();
  for (int x = 0; x < world.repo->num_attributes(); ++x) {
    const AttributeDomain& dom = world.repo->domain(x);
    for (int a = 0; a < world.repo->num_pivots(x); ++a) {
      for (ValueId v = 0; v < dom.size(); ++v) {
        EXPECT_DOUBLE_EQ(
            world.repo->pivot_distance(x, a, v),
            JaccardDistance(dom.tokens(v), world.repo->pivot_tokens(x, a)));
      }
    }
  }
}

TEST(RepositoryTest, RegisterValueExtendsPivotTables) {
  ToyWorld world = MakeHealthWorld();
  const size_t before = world.repo->domain(2).size();
  TokenDict* dict = world.dict.get();
  Tokenizer tok(dict);
  TokenSet tokens = tok.Tokenize("hypertension");
  const ValueId vid = world.repo->RegisterValue(2, tokens, "hypertension");
  EXPECT_EQ(world.repo->domain(2).size(), before + 1);
  // Pivot distances are immediately queryable for the new value.
  EXPECT_DOUBLE_EQ(world.repo->pivot_distance(2, 0, vid),
                   JaccardDistance(tokens, world.repo->pivot_tokens(2, 0)));
}

TEST(RepositoryTest, RegisterValueIsIdempotentForKnownTokens) {
  ToyWorld world = MakeHealthWorld();
  const AttributeDomain& dom = world.repo->domain(2);
  const size_t before = dom.size();
  const TokenSet existing = dom.tokens(0);
  const ValueId vid = world.repo->RegisterValue(2, existing, "dup");
  EXPECT_EQ(vid, 0u);
  EXPECT_EQ(dom.size(), before);
}

TEST(RepositoryTest, AddSampleAfterPivotsKeepsTablesConsistent) {
  ToyWorld world = MakeHealthWorld();
  Record r = world.Make(
      2000, {"female", "sore throat fever", "strep throat", "antibiotics"});
  ASSERT_TRUE(world.repo->AddSample(r).ok());
  const size_t i = world.repo->num_samples() - 1;
  for (int x = 0; x < world.repo->num_attributes(); ++x) {
    const ValueId vid = world.repo->sample_value_id(i, x);
    EXPECT_DOUBLE_EQ(
        world.repo->pivot_distance(x, 0, vid),
        JaccardDistance(r.values[x].tokens, world.repo->pivot_tokens(x, 0)));
  }
}

TEST(AttributeDomainTest, BumpFrequencyOutOfRangeIsChecked) {
  AttributeDomain dom;
  // Regression: BumpFrequency was the only accessor without a bounds
  // guard — an out-of-range ValueId was silent UB on frequencies_[id].
  EXPECT_DEATH(dom.BumpFrequency(0), "frequencies_");
  TokenSet one = TokenSet::FromTokens({1, 2});
  const ValueId vid = dom.FindOrAdd(one, "one two");
  dom.BumpFrequency(vid);
  EXPECT_EQ(dom.frequency(vid), 1);
  EXPECT_DEATH(dom.BumpFrequency(vid + 1), "frequencies_");
}

// --- Dynamic repository: RegisterValue after AttachPivots ----------------

TEST(RepositoryTest, DuplicateRegisterValueAfterPivotsIsANoOp) {
  ToyWorld world = MakeHealthWorld();
  Tokenizer tok(world.dict.get());
  const TokenSet tokens = tok.Tokenize("hypertension");
  const ValueId vid = world.repo->RegisterValue(2, tokens, "hypertension");
  const size_t size = world.repo->domain_size(2);
  // Re-registering the same token set (even under a different display
  // text) must not grow the domain or the pivot tables.
  EXPECT_EQ(world.repo->RegisterValue(2, tokens, "other text"), vid);
  EXPECT_EQ(world.repo->domain_size(2), size);
}

}  // namespace
}  // namespace terids
