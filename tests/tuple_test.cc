#include <gtest/gtest.h>

#include "test_util.h"
#include "text/token_set.h"
#include "tuple/imputed_tuple.h"
#include "tuple/record.h"
#include "tuple/schema.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

TEST(SchemaTest, BasicAccessors) {
  Schema schema({"a", "b", "c"});
  EXPECT_EQ(schema.num_attributes(), 3);
  EXPECT_EQ(schema.name(1), "b");
  EXPECT_EQ(schema.IndexOf("c"), 2);
  EXPECT_EQ(schema.IndexOf("zzz"), -1);
}

TEST(RecordTest, MissingMaskAndCompleteness) {
  ToyWorld world = MakeHealthWorld();
  Record complete =
      world.Make(1, {"male", "fever", "flu", "rest"});
  EXPECT_TRUE(complete.IsComplete());
  EXPECT_EQ(complete.MissingMask(), 0u);

  Record partial = world.Make(2, {"male", "fever cough", "-", "-"});
  EXPECT_FALSE(partial.IsComplete());
  EXPECT_EQ(partial.MissingMask(), 0b1100u);
  EXPECT_EQ(partial.MissingAttributes(), (std::vector<int>{2, 3}));
}

TEST(RecordTest, TotalTokenCountSkipsMissing) {
  ToyWorld world = MakeHealthWorld();
  Record r = world.Make(3, {"male", "fever cough", "-", "rest"});
  EXPECT_EQ(r.TotalTokenCount(), 4u);
}

TEST(ImputedTupleTest, CompleteTupleHasSingleCertainInstance) {
  ToyWorld world = MakeHealthWorld();
  Record r = world.Make(1, {"male", "fever", "flu", "rest"});
  ImputedTuple t = ImputedTuple::FromComplete(r, world.repo.get());
  EXPECT_EQ(t.num_instances(), 1);
  EXPECT_DOUBLE_EQ(t.instance_prob(0), 1.0);
  EXPECT_DOUBLE_EQ(t.total_prob(), 1.0);
  EXPECT_FALSE(t.IsAttrImputed(2));
}

TEST(ImputedTupleTest, InstanceTokensResolveImputedChoices) {
  ToyWorld world = MakeHealthWorld();
  Record r = world.Make(2, {"male", "blurred vision", "-", "drug therapy"});
  const AttributeDomain& dom = world.repo->domain(2);
  ValueId diabetes = kInvalidValueId;
  ValueId flu = kInvalidValueId;
  for (ValueId v = 0; v < dom.size(); ++v) {
    if (dom.text(v) == "diabetes") diabetes = v;
    if (dom.text(v) == "flu") flu = v;
  }
  ASSERT_NE(diabetes, kInvalidValueId);
  ASSERT_NE(flu, kInvalidValueId);

  ImputedTuple::ImputedAttr ia;
  ia.attr = 2;
  ia.candidates = {{diabetes, 0.7}, {flu, 0.3}};
  ImputedTuple t =
      ImputedTuple::FromImputation(r, world.repo.get(), {ia}, 16);
  ASSERT_EQ(t.num_instances(), 2);
  // Instances sorted by probability: diabetes first.
  EXPECT_DOUBLE_EQ(t.instance_prob(0), 0.7);
  EXPECT_EQ(&t.instance_tokens(0, 2), &dom.tokens(diabetes));
  EXPECT_EQ(&t.instance_tokens(1, 2), &dom.tokens(flu));
  EXPECT_NEAR(t.total_prob(), 1.0, 1e-12);
}

TEST(ImputedTupleTest, CrossProductOfTwoMissingAttributes) {
  ToyWorld world = MakeHealthWorld();
  Record r = world.Make(3, {"male", "fever cough", "-", "-"});
  const AttributeDomain& diag = world.repo->domain(2);
  const AttributeDomain& treat = world.repo->domain(3);
  ImputedTuple::ImputedAttr d;
  d.attr = 2;
  d.candidates = {{0, 0.6}, {1, 0.4}};
  ImputedTuple::ImputedAttr t;
  t.attr = 3;
  t.candidates = {{0, 0.5}, {1, 0.3}, {2, 0.2}};
  ASSERT_GE(diag.size(), 2u);
  ASSERT_GE(treat.size(), 3u);

  ImputedTuple tuple =
      ImputedTuple::FromImputation(r, world.repo.get(), {d, t}, 16);
  EXPECT_EQ(tuple.num_instances(), 6);
  EXPECT_NEAR(tuple.total_prob(), 1.0, 1e-12);
  // Highest-probability combination first: 0.6 * 0.5.
  EXPECT_NEAR(tuple.instance_prob(0), 0.30, 1e-12);
}

TEST(ImputedTupleTest, InstanceCapKeepsHighestProbability) {
  ToyWorld world = MakeHealthWorld();
  Record r = world.Make(4, {"male", "fever cough", "-", "-"});
  ImputedTuple::ImputedAttr d;
  d.attr = 2;
  ImputedTuple::ImputedAttr t;
  t.attr = 3;
  for (ValueId v = 0; v < 3; ++v) {
    d.candidates.push_back({v, v == 0 ? 0.8 : 0.1});
    t.candidates.push_back({v, v == 0 ? 0.8 : 0.1});
  }
  ImputedTuple tuple =
      ImputedTuple::FromImputation(r, world.repo.get(), {d, t}, 4);
  EXPECT_EQ(tuple.num_instances(), 4);
  // The best combination (0.8 * 0.8) must be retained.
  EXPECT_NEAR(tuple.instance_prob(0), 0.64, 1e-12);
  // Total probability is sub-stochastic after the cap (Definition 4).
  EXPECT_LT(tuple.total_prob(), 1.0);
  EXPECT_GT(tuple.total_prob(), 0.64);
}

TEST(ImputedTupleTest, AggregatesCoverEveryInstance) {
  ToyWorld world = MakeHealthWorld();
  Record r = world.Make(5, {"female", "fever cough", "-", "rest"});
  const AttributeDomain& dom = world.repo->domain(2);
  ImputedTuple::ImputedAttr ia;
  ia.attr = 2;
  for (ValueId v = 0; v < dom.size() && v < 4; ++v) {
    ia.candidates.push_back({v, 1.0 / 4});
  }
  ImputedTuple t =
      ImputedTuple::FromImputation(r, world.repo.get(), {ia}, 16);

  for (int k = 0; k < t.num_attributes(); ++k) {
    const Interval sizes = t.token_size_interval(k);
    for (int m = 0; m < t.num_instances(); ++m) {
      const double size = static_cast<double>(t.instance_tokens(m, k).size());
      EXPECT_GE(size, sizes.lo);
      EXPECT_LE(size, sizes.hi);
      for (int p = 0; p < world.repo->num_pivots(k); ++p) {
        const double dist = JaccardDistance(t.instance_tokens(m, k),
                                            world.repo->pivot_tokens(k, p));
        const Interval dists = t.pivot_dist_interval(k, p);
        EXPECT_GE(dist, dists.lo - 1e-12);
        EXPECT_LE(dist, dists.hi + 1e-12);
        if (!t.IsAttrImputed(k)) {
          // A fixed attribute's interval is the point [dist, dist].
          EXPECT_EQ(dists.lo, dist);
          EXPECT_EQ(dists.hi, dist);
        }
      }
    }
  }
}

TEST(ImputedTupleTest, ExpectedDistIsConvexCombination) {
  ToyWorld world = MakeHealthWorld();
  Record r = world.Make(6, {"male", "blurred vision", "-", "drug therapy"});
  ImputedTuple::ImputedAttr ia;
  ia.attr = 2;
  ia.candidates = {{0, 0.5}, {1, 0.5}};
  ImputedTuple t =
      ImputedTuple::FromImputation(r, world.repo.get(), {ia}, 16);
  // Lemma 4.3's sum of E(X_k) lies between the sums of the main-pivot
  // interval ends, which are the sums of the row's intervals.
  const double* row = t.row();
  double lo = 0.0;
  double hi = 0.0;
  for (int k = 0; k < t.num_attributes(); ++k) {
    lo += t.pivot_dist_interval(k, 0).lo;
    hi += t.pivot_dist_interval(k, 0).hi;
  }
  EXPECT_EQ(row[PairRowLayout::kSumLo], lo);
  EXPECT_EQ(row[PairRowLayout::kSumHi], hi);
  EXPECT_GE(row[PairRowLayout::kSumExpected], lo - 1e-12);
  EXPECT_LE(row[PairRowLayout::kSumExpected], hi + 1e-12);
  EXPECT_GT(hi, lo);
}

TEST(ImputedTupleTest, UnfilledMissingAttributeIsEmptyInAllInstances) {
  ToyWorld world = MakeHealthWorld();
  Record r = world.Make(7, {"male", "fever", "-", "-"});
  // Only attribute 2 gets candidates; attribute 3 stays unfilled.
  ImputedTuple::ImputedAttr ia;
  ia.attr = 2;
  ia.candidates = {{0, 1.0}};
  ImputedTuple t =
      ImputedTuple::FromImputation(r, world.repo.get(), {ia}, 16);
  for (int m = 0; m < t.num_instances(); ++m) {
    EXPECT_TRUE(t.instance_tokens(m, 3).empty());
  }
  EXPECT_EQ(t.token_size_interval(3).lo, 0.0);
  EXPECT_EQ(t.token_size_interval(3).hi, 0.0);
}

}  // namespace
}  // namespace terids
