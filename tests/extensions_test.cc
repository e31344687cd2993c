// Tests for the paper's noted extension to heterogeneous schemas: the
// pooled-token similarity.

#include <gtest/gtest.h>

#include "er/similarity.h"
#include "test_util.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

TEST(HeterogeneousSimilarityTest, PoolsTokensAcrossAttributes) {
  ToyWorld world = MakeHealthWorld();
  // The same content distributed differently across attributes: the
  // homogeneous per-attribute sum differs, the heterogeneous form is 1.
  Record a = world.Make(1, {"male", "fever cough", "flu", "rest"});
  Record b = world.Make(2, {"male", "fever", "cough flu", "rest"});
  EXPECT_LT(RecordSimilarity(a, b), 4.0);
  EXPECT_DOUBLE_EQ(HeterogeneousRecordSimilarity(a, b), 1.0);
}

TEST(HeterogeneousSimilarityTest, RangeAndMissingHandling) {
  ToyWorld world = MakeHealthWorld();
  Record a = world.Make(1, {"male", "fever", "-", "-"});
  Record b = world.Make(2, {"female", "cough", "flu", "-"});
  const double sim = HeterogeneousRecordSimilarity(a, b);
  EXPECT_GE(sim, 0.0);
  EXPECT_LE(sim, 1.0);
  // Disjoint tokens: exactly 0.
  EXPECT_DOUBLE_EQ(sim, 0.0);
}

TEST(HeterogeneousSimilarityTest, DuplicateTokensAcrossAttrsCountOnce) {
  ToyWorld world = MakeHealthWorld();
  Record a = world.Make(1, {"fever", "fever", "fever", "fever"});
  Record b = world.Make(2, {"fever", "cough", "cough", "cough"});
  // Union token sets: {fever} vs {fever, cough} -> 1/2.
  EXPECT_DOUBLE_EQ(HeterogeneousRecordSimilarity(a, b), 0.5);
}

}  // namespace
}  // namespace terids
