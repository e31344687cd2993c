// Integration tests: full pipelines over generated incomplete streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/baseline_engines.h"
#include "core/pipeline.h"
#include "core/terids_engine.h"
#include "datagen/generator.h"
#include "datagen/profiles.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "stream/stream_driver.h"

namespace terids {
namespace {

ExperimentParams SmallParams() {
  ExperimentParams params;
  params.scale = 0.06;
  params.w = 60;
  params.max_arrivals = 260;
  params.xi = 0.3;
  params.m = 1;
  return params;
}

class PipelineIntegrationTest : public ::testing::Test {
 protected:
  PipelineIntegrationTest()
      : experiment_(CitationsProfile(), SmallParams()) {}
  Experiment experiment_;
};

TEST_F(PipelineIntegrationTest, AllPipelinesRunToCompletion) {
  for (PipelineKind kind :
       {PipelineKind::kTerIds, PipelineKind::kIjGer, PipelineKind::kCddEr,
        PipelineKind::kDdEr, PipelineKind::kEditingEr,
        PipelineKind::kConstraintEr}) {
    PipelineRun run = experiment_.Run(kind);
    EXPECT_EQ(run.arrivals, 260u);
    EXPECT_GE(run.accuracy.f_score, 0.0);
    EXPECT_LE(run.accuracy.f_score, 1.0);
  }
}

/// The central consistency property: the indexed engines (TER-iDS, Ij+GER)
/// and the unindexed CDD+ER baseline share the imputation model, so their
/// reported pair sets must be identical — indexes and pruning change cost,
/// never results.
TEST_F(PipelineIntegrationTest, IndexedAndLinearCddPipelinesAgree) {
  auto collect = [&](PipelineKind kind) {
    std::unique_ptr<Repository> repo = experiment_.BuildRepository();
    std::unique_ptr<PipelineBase> pipeline = MakePipeline(
        kind, repo.get(), experiment_.MakeConfig(), 2, experiment_.cdds(),
        experiment_.dds(), experiment_.editing_rules());
    std::vector<Record> inc_a = DataGenerator::WithMissing(
        experiment_.dataset().source_a, SmallParams().xi, 1,
        SmallParams().seed);
    std::vector<Record> inc_b = DataGenerator::WithMissing(
        experiment_.dataset().source_b, SmallParams().xi, 1,
        SmallParams().seed + 1);
    StreamDriver driver({inc_a, inc_b});
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (int i = 0; i < 260 && driver.HasNext(); ++i) {
      for (const MatchPair& p :
           pipeline->ProcessArrival(driver.Next()).new_matches) {
        pairs.emplace_back(p.rid_a, p.rid_b);
      }
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  const auto terids = collect(PipelineKind::kTerIds);
  const auto ijger = collect(PipelineKind::kIjGer);
  const auto cdder = collect(PipelineKind::kCddEr);
  EXPECT_EQ(terids, cdder);
  EXPECT_EQ(ijger, cdder);
  EXPECT_FALSE(terids.empty());
}

TEST_F(PipelineIntegrationTest, ReportedPairsSpanTwoStreams) {
  std::unique_ptr<Repository> repo = experiment_.BuildRepository();
  std::unique_ptr<PipelineBase> pipeline = MakePipeline(
      PipelineKind::kTerIds, repo.get(), experiment_.MakeConfig(), 2,
      experiment_.cdds(), experiment_.dds(), experiment_.editing_rules());
  const int64_t a_size =
      static_cast<int64_t>(experiment_.dataset().source_a.size());
  StreamDriver driver(
      {experiment_.dataset().source_a, experiment_.dataset().source_b});
  for (int i = 0; i < 260 && driver.HasNext(); ++i) {
    for (const MatchPair& p :
         pipeline->ProcessArrival(driver.Next()).new_matches) {
      const bool a_from_a = p.rid_a < a_size;
      const bool b_from_a = p.rid_b < a_size;
      EXPECT_NE(a_from_a, b_from_a) << "pair within one stream reported";
    }
  }
}

TEST_F(PipelineIntegrationTest, MatchProbabilitiesExceedAlpha) {
  std::unique_ptr<Repository> repo = experiment_.BuildRepository();
  const EngineConfig config = experiment_.MakeConfig();
  std::unique_ptr<PipelineBase> pipeline = MakePipeline(
      PipelineKind::kTerIds, repo.get(), config, 2, experiment_.cdds(),
      experiment_.dds(), experiment_.editing_rules());
  StreamDriver driver(
      {experiment_.dataset().source_a, experiment_.dataset().source_b});
  for (int i = 0; i < 260 && driver.HasNext(); ++i) {
    for (const MatchPair& p :
         pipeline->ProcessArrival(driver.Next()).new_matches) {
      EXPECT_GT(p.probability, config.alpha);
    }
  }
}

TEST_F(PipelineIntegrationTest, EvictionRemovesExpiredPairsFromResultSet) {
  std::unique_ptr<Repository> repo = experiment_.BuildRepository();
  EngineConfig config = experiment_.MakeConfig();
  config.window_size = 20;  // Aggressive eviction.
  TerIdsEngine engine(repo.get(), config, 2, experiment_.cdds());
  StreamDriver driver(
      {experiment_.dataset().source_a, experiment_.dataset().source_b});
  int64_t clock = 0;
  std::vector<std::pair<int64_t, int64_t>> live;
  while (driver.HasNext() && clock < 400) {
    const Record r = driver.Next();
    engine.ProcessArrival(r);
    ++clock;
  }
  // Every pair still in ES must reference tuples inside the live windows.
  std::vector<int64_t> live_rids;
  for (int s = 0; s < 2; ++s) {
    for (size_t slot = 0; slot < engine.window(s).size(); ++slot) {
      live_rids.push_back(engine.window(s).at(slot).rid());
    }
  }
  std::sort(live_rids.begin(), live_rids.end());
  for (const MatchPair& p : engine.results().ToVector()) {
    EXPECT_TRUE(
        std::binary_search(live_rids.begin(), live_rids.end(), p.rid_a));
    EXPECT_TRUE(
        std::binary_search(live_rids.begin(), live_rids.end(), p.rid_b));
  }
}

TEST_F(PipelineIntegrationTest, UnconstrainedQueryReturnsSupersetOfTopical) {
  // With K = all topics (unconstrained), the result set must contain every
  // pair the topical query reports.
  ExperimentParams params = SmallParams();
  Experiment topical(CitationsProfile(), params);
  PipelineRun topical_run = topical.Run(PipelineKind::kTerIds);

  params.topics_in_query = 10;  // All generated topics.
  Experiment broad(CitationsProfile(), params);
  PipelineRun broad_run = broad.Run(PipelineKind::kTerIds);
  EXPECT_GE(broad_run.accuracy.returned, topical_run.accuracy.returned);
}

TEST_F(PipelineIntegrationTest, PruningPowerIsHigh) {
  PipelineRun run = experiment_.Run(PipelineKind::kTerIds);
  EXPECT_GT(run.stats.total_pairs, 0u);
  // The paper reports 98.32%-99.43% across datasets; at our scales the
  // cascade should still kill the overwhelming majority of pairs.
  EXPECT_GT(run.stats.TotalPower(), 0.9);
  // Topic pruning dominates (Figure 4's shape).
  EXPECT_GT(run.stats.topic_pruned, run.stats.prob_ub_pruned);
}

/// Exposes the engine's index-join imputation of one record.
class ImputingEngine : public TerIdsEngine {
 public:
  using TerIdsEngine::TerIdsEngine;
  std::vector<ImputedTuple::ImputedAttr> ImputeNow(const Record& r) {
    return Impute(r, nullptr);
  }
};

/// The token union of two records' values on `attr`.
AttrValue UnionValue(const Record& a, const Record& b, int attr) {
  std::vector<Token> tokens(a.values[attr].tokens.begin(),
                            a.values[attr].tokens.end());
  tokens.insert(tokens.end(), b.values[attr].tokens.begin(),
                b.values[attr].tokens.end());
  AttrValue v;
  v.text = a.values[attr].text + " " + b.values[attr].text;
  v.tokens = TokenSet::FromTokens(std::move(tokens));
  return v;
}

TEST_F(PipelineIntegrationTest, DynamicRepositoryAbsorption) {
  std::unique_ptr<Repository> repo = experiment_.BuildRepository();
  const std::vector<Record>& records = experiment_.dataset().repo_records;
  // `fresh` carries, on attributes 0 and 2, token unions that no sample
  // carries yet. An exact-match rule 0 -> 2 can then only be satisfied by
  // `fresh` itself, once it is absorbed.
  Record fresh = records[0];
  fresh.rid = 1 << 30;
  fresh.values[0] = UnionValue(records[0], records[1], 0);
  fresh.values[2] = UnionValue(records[0], records[3], 2);
  ASSERT_EQ(repo->FindValue(0, fresh.values[0].tokens), kInvalidValueId);
  ASSERT_EQ(repo->FindValue(2, fresh.values[2].tokens), kInvalidValueId);
  CddRule exact;
  exact.dependent = 2;
  exact.det_mask = 1u << 0;
  exact.determinants.emplace_back(0, AttrConstraint::MakeInterval(0.0, 0.0));
  exact.dep_interval = Interval::Of(0.0, 0.0);
  ImputingEngine engine(repo.get(), experiment_.MakeConfig(), 2, {exact});
  Record probe = fresh;
  probe.values[2] = AttrValue::Missing();
  EXPECT_TRUE(engine.ImputeNow(probe).empty());

  const size_t before = repo->num_samples();
  ASSERT_TRUE(engine.AbsorbRepositoryBatch({fresh}).ok());
  ASSERT_EQ(engine.rules()[0].dep_interval, exact.dep_interval);
  // The absorbed sample's vote is the whole imputation.
  const auto imputed = engine.ImputeNow(probe);
  ASSERT_EQ(imputed.size(), 1u);
  ASSERT_EQ(imputed[0].candidates.size(), 1u);
  EXPECT_EQ(imputed[0].candidates[0].vid,
            repo->FindValue(2, fresh.values[2].tokens));
  EXPECT_EQ(imputed[0].candidates[0].prob, 1.0);

  ASSERT_TRUE(engine
                  .AbsorbRepositoryBatch(std::vector<Record>(
                      records.begin(), records.begin() + 5))
                  .ok());
  EXPECT_EQ(repo->num_samples(), before + 6);
  // The engine still processes arrivals afterwards.
  StreamDriver driver(
      {experiment_.dataset().source_a, experiment_.dataset().source_b});
  for (int i = 0; i < 50 && driver.HasNext(); ++i) {
    engine.ProcessArrival(driver.Next());
  }
}

// ProcessStream whose sink throws mid-stream: the exception must reach the
// caller at the failing delivery, the driver must not be drained, and the
// pipeline must then destruct cleanly.
TEST_F(PipelineIntegrationTest, ThrowingSinkStopsTheStream) {
  std::unique_ptr<Repository> repo = experiment_.BuildRepository();
  EngineConfig config = experiment_.MakeConfig();
  config.batch_size = 4;
  std::unique_ptr<PipelineBase> pipeline = MakePipeline(
      PipelineKind::kTerIds, repo.get(), config, 2, experiment_.cdds(),
      experiment_.dds(), experiment_.editing_rules());
  StreamDriver driver({experiment_.incomplete_a(), experiment_.incomplete_b()});
  size_t delivered = 0;
  const PipelineBase::OutcomeSink failing_sink =
      [&delivered](ArrivalOutcome&&) {
        if (++delivered == 10) {
          throw std::runtime_error("sink");
        }
      };
  EXPECT_THROW(pipeline->ProcessStream(&driver, 260, 4, failing_sink),
               std::runtime_error);
  EXPECT_EQ(delivered, 10u);
  // The throw came in the third chunk of four: 12 arrivals were consumed.
  EXPECT_EQ(driver.emitted(), 12u);
  EXPECT_TRUE(driver.HasNext());
  pipeline.reset();
}

// terbench's bikes_writes_async shape (chunks of 8 with the ignored
// sched_threads / refine_threads stubs set) emits exactly what the default
// configuration emits, reports the async-ingest fields terbench still reads
// as zero, and has no scheduler latencies.
TEST_F(PipelineIntegrationTest, BikesShapeEmitsTheDefaultOutput) {
  struct Replay {
    std::vector<MatchPair> emitted;
    PruneStats stats;
    size_t not_processed = 0;
    double queue_wait = 0.0;
  };
  auto replay = [&](const EngineConfig& config) {
    std::unique_ptr<Repository> repo = experiment_.BuildRepository();
    TerIdsEngine engine(repo.get(), config, 2, experiment_.cdds());
    StreamDriver driver(
        {experiment_.incomplete_a(), experiment_.incomplete_b()});
    Replay r;
    const size_t processed = engine.ProcessStream(
        &driver, 260, static_cast<size_t>(config.batch_size),
        [&r](ArrivalOutcome&& out) {
          r.not_processed +=
              out.disposition != ArrivalDisposition::kProcessed;
          r.queue_wait += out.cost.queue_wait_seconds;
          r.emitted.insert(r.emitted.end(), out.new_matches.begin(),
                           out.new_matches.end());
        });
    EXPECT_EQ(processed, 260u);
    EXPECT_EQ(engine.shed_stats()->admit_block_seconds, 0.0);
    const LatencyStats items = engine.ConsumeSchedulerLatencies();
    for (int p = 0; p < kNumExecPhases; ++p) {
      EXPECT_EQ(items.phase[p].count(), 0u);
    }
    EXPECT_EQ(items.end_to_end.count(), 0u);
    r.stats = engine.cumulative_stats();
    return r;
  };

  EngineConfig bikes = experiment_.MakeConfig();
  bikes.batch_size = 8;
  bikes.sched_threads = 2;
  bikes.refine_threads = 2;
  const Replay got = replay(bikes);
  const Replay want = replay(experiment_.MakeConfig());
  ASSERT_EQ(got.emitted.size(), want.emitted.size());
  for (size_t i = 0; i < got.emitted.size(); ++i) {
    EXPECT_EQ(got.emitted[i].rid_a, want.emitted[i].rid_a);
    EXPECT_EQ(got.emitted[i].rid_b, want.emitted[i].rid_b);
    EXPECT_EQ(got.emitted[i].probability, want.emitted[i].probability);
  }
  EXPECT_EQ(got.stats.total_pairs, want.stats.total_pairs);
  EXPECT_EQ(got.stats.topic_pruned, want.stats.topic_pruned);
  EXPECT_EQ(got.stats.sim_ub_pruned, want.stats.sim_ub_pruned);
  EXPECT_EQ(got.stats.prob_ub_pruned, want.stats.prob_ub_pruned);
  EXPECT_EQ(got.stats.instance_pruned, want.stats.instance_pruned);
  EXPECT_EQ(got.stats.refined, want.stats.refined);
  EXPECT_EQ(got.stats.matched, want.stats.matched);
  EXPECT_EQ(got.stats.sig_probes, want.stats.sig_probes);
  EXPECT_EQ(got.stats.sig_rejects, want.stats.sig_rejects);
  EXPECT_EQ(got.stats.deferred, 0u);
  EXPECT_GT(got.stats.refined, 0u);
  EXPECT_EQ(got.not_processed, 0u);
  EXPECT_EQ(got.queue_wait, 0.0);
}

TEST(MetricsTest, FScoreMath) {
  std::vector<MatchPair> returned = {{1, 10, 0.9}, {2, 11, 0.8}, {3, 12, 0.7}};
  std::vector<GroundTruthPair> truth = {{1, 10}, {2, 11}, {4, 13}, {5, 14}};
  PrecisionRecall pr = ComputeFScore(returned, truth);
  EXPECT_EQ(pr.true_positives, 2u);
  EXPECT_DOUBLE_EQ(pr.precision, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(pr.recall, 0.5);
  EXPECT_NEAR(pr.f_score, 2 * (2.0 / 3.0) * 0.5 / ((2.0 / 3.0) + 0.5), 1e-12);
}

TEST(MetricsTest, EmptyInputsAreZero) {
  PrecisionRecall pr = ComputeFScore({}, {});
  EXPECT_DOUBLE_EQ(pr.precision, 0.0);
  EXPECT_DOUBLE_EQ(pr.recall, 0.0);
  EXPECT_DOUBLE_EQ(pr.f_score, 0.0);
}

TEST(MetricsTest, DuplicateReturnsCountOnce) {
  std::vector<MatchPair> returned = {{1, 10, 0.9}, {10, 1, 0.8}};
  std::vector<GroundTruthPair> truth = {{1, 10}};
  PrecisionRecall pr = ComputeFScore(returned, truth);
  EXPECT_EQ(pr.returned, 1u);
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);
}

}  // namespace
}  // namespace terids
