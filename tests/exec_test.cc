// Unit tests of PruneStats::Record, the one way the pipeline folds a pair
// evaluation into its counters.

#include <gtest/gtest.h>

#include "er/pruning.h"

namespace terids {
namespace {

TEST(PruneStatsTest, RecordReproducesTheSequentialCounters) {
  PruneStats stats;
  stats.Record(PairOutcome::kTopicPruned);
  stats.Record(PairOutcome::kSimUbPruned);
  stats.Record(PairOutcome::kProbUbPruned);
  stats.Record(PairOutcome::kInstancePruned);
  stats.Record(PairOutcome::kRefuted);
  stats.Record(PairOutcome::kMatched);
  EXPECT_EQ(stats.total_pairs, 6u);
  EXPECT_EQ(stats.topic_pruned, 1u);
  EXPECT_EQ(stats.sim_ub_pruned, 1u);
  EXPECT_EQ(stats.prob_ub_pruned, 1u);
  EXPECT_EQ(stats.instance_pruned, 1u);
  EXPECT_EQ(stats.refined, 2u);  // refuted + matched both reach refinement
  EXPECT_EQ(stats.matched, 1u);
}

}  // namespace
}  // namespace terids
