// Behavioral tests of engine-level guarantees that the integration suite
// does not pin down: n > 2 streams, determinism, and refinement edge
// cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/pipeline.h"
#include "core/terids_engine.h"
#include "er/probability.h"
#include "rules/rule_miner.h"
#include "test_util.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

class EngineBehaviorTest : public ::testing::Test {
 protected:
  EngineBehaviorTest() : world_(MakeHealthWorld()) {
    MinerOptions opts;
    opts.min_support = 2;
    opts.min_const_freq = 2;
    RuleMiner miner(world_.repo.get(), opts);
    rules_ = miner.MineCdds();
    config_.keywords = {"diabetes"};
    config_.gamma = 2.2;
    config_.alpha = 0.4;
    config_.window_size = 16;
  }

  Record Post(int64_t rid, int stream,
              const std::vector<std::string>& texts) {
    Record r = world_.Make(rid, texts);
    r.stream_id = stream;
    return r;
  }

  ToyWorld world_;
  std::vector<CddRule> rules_;
  EngineConfig config_;
};

TEST_F(EngineBehaviorTest, ThreeStreamsMatchAcrossAnyTwo) {
  TerIdsEngine engine(world_.repo.get(), config_, /*num_streams=*/3, rules_);
  const std::vector<std::string> diabetic = {
      "male", "loss of weight", "diabetes", "drug therapy"};
  engine.ProcessArrival(Post(1, 0, diabetic));
  ArrivalOutcome second = engine.ProcessArrival(Post(2, 1, diabetic));
  EXPECT_EQ(second.new_matches.size(), 1u);  // streams 0-1
  ArrivalOutcome third = engine.ProcessArrival(Post(3, 2, diabetic));
  // Stream 2's tuple matches both earlier tuples (0-2 and 1-2 pairs).
  EXPECT_EQ(third.new_matches.size(), 2u);
  EXPECT_EQ(engine.results().size(), 3u);
}

TEST_F(EngineBehaviorTest, SameStreamDuplicatesNeverPair) {
  TerIdsEngine engine(world_.repo.get(), config_, 2, rules_);
  const std::vector<std::string> diabetic = {
      "male", "loss of weight", "diabetes", "drug therapy"};
  engine.ProcessArrival(Post(1, 0, diabetic));
  ArrivalOutcome dup = engine.ProcessArrival(Post(2, 0, diabetic));
  EXPECT_TRUE(dup.new_matches.empty());
}

TEST_F(EngineBehaviorTest, RepeatedRunsAreDeterministic) {
  std::vector<std::pair<uint64_t, size_t>> signatures;
  for (int run = 0; run < 2; ++run) {
    TerIdsEngine engine(world_.repo.get(), config_, 2, rules_);
    const std::vector<std::vector<std::string>> posts = {
        {"male", "loss of weight", "diabetes", "drug therapy"},
        {"male", "blurred vision", "-", "-"},
        {"female", "fever cough", "flu", "rest"},
        {"male", "loss of weight thirst", "-", "dietary therapy"},
    };
    size_t matches = 0;
    for (size_t i = 0; i < posts.size(); ++i) {
      matches += engine
                     .ProcessArrival(Post(static_cast<int64_t>(i),
                                          static_cast<int>(i % 2), posts[i]))
                     .new_matches.size();
    }
    signatures.emplace_back(engine.cumulative_stats().total_pairs, matches);
  }
  EXPECT_EQ(signatures[0], signatures[1]);
}

TEST_F(EngineBehaviorTest, EarlyAcceptedRefinementStillExceedsAlpha) {
  TopicQuery topic;  // unconstrained
  Record a = world_.Make(1, {"male", "fever", "flu", "rest"});
  Record b = world_.Make(2, {"male", "fever", "flu", "rest"});
  ImputedTuple ta = ImputedTuple::FromComplete(a, world_.repo.get());
  ImputedTuple tb = ImputedTuple::FromComplete(b, world_.repo.get());
  RefineResult refine = RefineProbability(ta, topic.Classify(ta), tb,
                                          topic.Classify(tb), 2.0, 0.5);
  EXPECT_TRUE(refine.early_accepted);
  EXPECT_GT(refine.probability, 0.5);
  EXPECT_EQ(refine.pairs_evaluated, 1);
}

TEST_F(EngineBehaviorTest, WindowSizeOneStillWorks) {
  EngineConfig config = config_;
  config.window_size = 1;
  TerIdsEngine engine(world_.repo.get(), config, 2, rules_);
  const std::vector<std::string> diabetic = {
      "male", "loss of weight", "diabetes", "drug therapy"};
  engine.ProcessArrival(Post(1, 0, diabetic));
  EXPECT_EQ(engine.ProcessArrival(Post(2, 1, diabetic)).new_matches.size(),
            1u);
  // A new stream-0 arrival evicts rid 1 and its pair.
  engine.ProcessArrival(Post(3, 0, {"female", "fever cough", "flu", "rest"}));
  EXPECT_FALSE(engine.results().Contains(1, 2));
}

TEST_F(EngineBehaviorTest, SigSaturationCountersTrackFilterWork) {
  // The sig_* PruneStats counters are signature-filter observability:
  // sig_probes counts two popcount probes per attribute of every instance
  // pair the refinement kernel visits, sig_saturated the probed signatures
  // with more than 48 of their 64 bits set, and sig_rejects the instance
  // pairs the popcount pass certified merge-free.
  const std::vector<std::vector<std::string>> posts = {
      {"male", "loss of weight", "diabetes", "drug therapy"},
      {"male", "loss of weight thirst", "diabetes", "drug therapy"},
      {"male", "blurred vision", "-", "drug therapy"},
      {"female", "loss of weight", "diabetes", "dietary therapy"},
      {"male", "fever cough headache", "flu", "drink more"},
      {"male", "loss of weight", "diabetes", "-"},
  };
  TerIdsEngine engine(world_.repo.get(), config_, 2, rules_);
  for (size_t i = 0; i < posts.size(); ++i) {
    engine.ProcessArrival(
        Post(static_cast<int64_t>(i), static_cast<int>(i % 2), posts[i]));
  }
  const PruneStats stats = engine.cumulative_stats();
  EXPECT_GT(stats.refined, 0u);  // the stream must actually refine something
  const uint64_t probes_per_pair = 2 * 4;  // two signatures x 4 attributes
  EXPECT_GT(stats.sig_probes, 0u);
  EXPECT_EQ(stats.sig_probes % probes_per_pair, 0u);
  EXPECT_LE(stats.sig_rejects, stats.sig_probes / probes_per_pair);
  EXPECT_LE(stats.sig_saturated, stats.sig_probes);
  EXPECT_GE(stats.SigSaturatedPct(), 0.0);
  EXPECT_LE(stats.SigSaturatedPct(), 100.0);
}

TEST_F(EngineBehaviorTest, NoRulesMeansUnimputedButStillRunning) {
  TerIdsEngine engine(world_.repo.get(), config_, 2, /*rules=*/{});
  Record incomplete = Post(1, 0, {"male", "loss of weight", "-", "-"});
  ArrivalOutcome outcome = engine.ProcessArrival(incomplete);
  EXPECT_TRUE(outcome.new_matches.empty());
  // The tuple is in the window as a single empty-attribute instance.
  EXPECT_EQ(engine.window(0).size(), 1u);
}

// Regression: a non-positive candidate cap used to pass construction and
// abort later on a huge allocation inside FinalizeCandidates.
TEST_F(EngineBehaviorTest, RejectsNonPositiveCandidateCap) {
  for (int cap : {0, -1}) {
    config_.max_candidates_per_attr = cap;
    EXPECT_DEATH(TerIdsEngine(world_.repo.get(), config_, 2, rules_),
                 "max_candidates_per_attr");
  }
}

// A rid still live in some window is refused before candidate generation,
// on the pruned path and the unpruned one: a second copy on the other
// stream would pair with itself, and one on its own stream would lose its
// pairs when the first copy expires.
TEST_F(EngineBehaviorTest, RejectsALiveRidOnEveryPipeline) {
  const std::vector<std::string> diabetic = {
      "male", "loss of weight", "diabetes", "drug therapy"};
  for (PipelineKind kind : {PipelineKind::kTerIds, PipelineKind::kCddEr}) {
    for (int stream : {0, 1}) {
      EXPECT_DEATH(
          {
            std::unique_ptr<PipelineBase> pipeline = MakePipeline(
                kind, world_.repo.get(), config_, 2, rules_, rules_, rules_);
            pipeline->ProcessArrival(Post(1, 0, diabetic));
            pipeline->ProcessArrival(Post(1, stream, diabetic));
          },
          "rid_not_live");
    }
  }
}

// Once its window evicts a tuple, its rid may arrive again.
TEST_F(EngineBehaviorTest, AcceptsAnEvictedRidAgain) {
  EngineConfig config = config_;
  config.window_size = 1;
  const std::vector<std::string> diabetic = {
      "male", "loss of weight", "diabetes", "drug therapy"};
  for (PipelineKind kind : {PipelineKind::kTerIds, PipelineKind::kCddEr}) {
    std::unique_ptr<PipelineBase> pipeline = MakePipeline(
        kind, world_.repo.get(), config, 2, rules_, rules_, rules_);
    pipeline->ProcessArrival(Post(1, 0, diabetic));
    pipeline->ProcessArrival(Post(2, 0, diabetic));  // evicts rid 1
    EXPECT_EQ(pipeline->ProcessArrival(Post(1, 1, diabetic))
                  .new_matches.size(),
              1u)
        << pipeline->name();
  }
}

}  // namespace
}  // namespace terids
