// Unit tests of the RefinementExecutor's determinism contract: evaluation
// fanned out on a Scheduler must be indistinguishable from the sequential
// pair loop. (The Scheduler itself is covered by scheduler_test.)

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "er/probability.h"
#include "er/pruning.h"
#include "er/topic.h"
#include "exec/refinement_executor.h"
#include "exec/scheduler.h"
#include "test_util.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

class RefinementExecutorTest : public ::testing::Test {
 protected:
  RefinementExecutorTest() : world_(MakeHealthWorld()) {}

  /// Window tuple over a complete toy record.
  std::shared_ptr<WindowTuple> MakeTuple(int64_t rid,
                                         const std::vector<std::string>& texts,
                                         const TopicQuery& topic) {
    auto wt = std::make_shared<WindowTuple>();
    wt->tuple = std::make_shared<const ImputedTuple>(ImputedTuple::FromComplete(
        world_.Make(rid, texts), world_.repo.get()));
    wt->topic = topic.Classify(*wt->tuple);
    return wt;
  }

  ToyWorld world_;
};

TEST_F(RefinementExecutorTest, ParallelEqualsSequentialOnBothCascades) {
  TopicQuery topic(*world_.dict, {"diabetes", "flu"});
  // A probe against a spread of candidates: exact duplicates (matches),
  // near misses, topic-less tuples and disjoint tuples. Run hands every
  // task to RefinePair or the exact probability; the bound stages run
  // before it, in the batched cascade.
  std::vector<std::vector<std::string>> texts = {
      {"male", "fever cough", "flu", "drink more"},
      {"male", "fever cough headache", "flu", "drink more"},
      {"female", "red eye itchy", "conjunctivitis", "eye drop"},
      {"male", "loss of weight", "diabetes", "dietary therapy"},
      {"female", "fever low spirit", "pneumonia", "antibiotics"},
  };
  // The parallel Run shards the tasks across workers; the evaluations must
  // nevertheless be bit-identical to the sequential executor's, including
  // the sig_* observability counters (Evaluate is pure, placement changes
  // nothing).
  std::shared_ptr<WindowTuple> probe =
      MakeTuple(1, {"male", "fever cough", "flu", "drink more"}, topic);
  std::vector<std::shared_ptr<WindowTuple>> cands;
  std::vector<RefinementExecutor::Task> tasks;
  for (size_t i = 0; i < texts.size(); ++i) {
    for (int rep = 0; rep < 13; ++rep) {  // enough tasks to shard
      cands.push_back(MakeTuple(static_cast<int64_t>(100 + cands.size()),
                                texts[i], topic));
      tasks.push_back({probe->tuple.get(), &probe->topic, cands.back().get()});
    }
  }

  Scheduler sched(3);
  for (bool pruned : {true, false}) {
    RefinementExecutor sequential;
    RefinementExecutor parallel(&sched);
    ASSERT_EQ(sequential.num_threads(), 1);
    ASSERT_EQ(parallel.num_threads(), 4);
    std::vector<PairEvaluation> seq_evals;
    std::vector<PairEvaluation> par_evals;
    sequential.Run(tasks, pruned, 2.0, 0.4, &seq_evals);
    parallel.Run(tasks, pruned, 2.0, 0.4, &par_evals);
    ASSERT_EQ(seq_evals.size(), tasks.size());
    ASSERT_EQ(par_evals.size(), tasks.size());
    PruneStats seq_stats;
    PruneStats par_stats;
    for (size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_EQ(par_evals[i].outcome, seq_evals[i].outcome) << "task " << i;
      EXPECT_DOUBLE_EQ(par_evals[i].probability, seq_evals[i].probability)
          << "task " << i;
      EXPECT_EQ(par_evals[i].sig_probes, seq_evals[i].sig_probes)
          << "task " << i;
      EXPECT_EQ(par_evals[i].sig_saturated, seq_evals[i].sig_saturated)
          << "task " << i;
      EXPECT_EQ(par_evals[i].sig_rejects, seq_evals[i].sig_rejects)
          << "task " << i;
      seq_stats.Record(seq_evals[i].outcome);
      par_stats.Record(par_evals[i].outcome);
    }
    EXPECT_EQ(seq_stats.total_pairs, tasks.size());
    EXPECT_EQ(par_stats.matched, seq_stats.matched);
    EXPECT_EQ(par_stats.refined, seq_stats.refined);
  }
}

TEST_F(RefinementExecutorTest, EmptyTaskSetYieldsEmptyEvaluations) {
  Scheduler sched(1);
  RefinementExecutor executor(&sched);
  std::vector<PairEvaluation> evals(3);
  executor.Run({}, /*pruned=*/true, 2.0, 0.5, &evals);
  EXPECT_TRUE(evals.empty());
}

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
