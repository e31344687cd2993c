// Parameterized end-to-end soundness sweeps.
//
// 1. Across every datagen profile and combinations of (alpha, rho, xi),
//    the fully indexed + pruned TER-iDS engine must report exactly the
//    same pair set as the unindexed, unpruned CDD+ER baseline. This is the
//    strongest property the system has — every index, synopsis, bound, and
//    pruning theorem changes cost, never results — checked over a grid of
//    query parameters rather than a single configuration. The baseline
//    decides every instance pair by plain merges (ExactProbability), so
//    this also checks the 64-bit signature kernel end to end.
// 2. Across every datagen profile, ProcessStream in chunks of 8 arrivals
//    must be bit-identical to calling ProcessArrival on each record: same
//    per-arrival matches in the same order, same final MatchSet, same
//    cumulative PruneStats.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/pipeline.h"
#include "datagen/generator.h"
#include "datagen/profiles.h"
#include "eval/experiment.h"
#include "stream/stream_driver.h"

namespace terids {
namespace {

// profile, alpha, rho, xi
using Combo = std::tuple<std::string, double, double, double>;

class EquivalenceSweepTest : public ::testing::TestWithParam<Combo> {};

/// Per-profile scale mirroring bench::BaseParams ratios: EBooks (long token
/// sets) and Songs (the 1M-tuple dataset) blow up wall time at a uniform
/// scale without adding coverage.
double SweepScale(const std::string& profile) {
  if (profile == "EBooks") return 0.012;
  if (profile == "Songs") return 0.002;
  return 0.04;
}

TEST_P(EquivalenceSweepTest, TerIdsEqualsUnprunedBaseline) {
  const auto [profile, alpha, rho, xi] = GetParam();
  ExperimentParams params;
  params.scale = SweepScale(profile);
  params.w = 50;
  params.max_arrivals = 220;
  params.alpha = alpha;
  params.rho = rho;
  params.xi = xi;
  Experiment experiment(ProfileByName(profile), params);

  auto collect = [&](PipelineKind kind) {
    std::unique_ptr<Repository> repo = experiment.BuildRepository();
    std::unique_ptr<PipelineBase> pipeline = MakePipeline(
        kind, repo.get(), experiment.MakeConfig(), 2, experiment.cdds(),
        experiment.dds(), experiment.editing_rules());
    std::vector<Record> inc_a = DataGenerator::WithMissing(
        experiment.dataset().source_a, xi, params.m, params.seed);
    std::vector<Record> inc_b = DataGenerator::WithMissing(
        experiment.dataset().source_b, xi, params.m, params.seed + 1);
    StreamDriver driver({inc_a, inc_b});
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (int i = 0; i < params.max_arrivals && driver.HasNext(); ++i) {
      for (const MatchPair& p :
           pipeline->ProcessArrival(driver.Next()).new_matches) {
        pairs.emplace_back(p.rid_a, p.rid_b);
      }
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };

  const auto terids = collect(PipelineKind::kTerIds);
  const auto baseline = collect(PipelineKind::kCddEr);
  EXPECT_EQ(terids, baseline) << profile << " alpha=" << alpha
                              << " rho=" << rho << " xi=" << xi;
}

// The full grid on Citations, plus two combos per other profile: the
// Table 5 defaults and one off-default point.
INSTANTIATE_TEST_SUITE_P(
    ParamGrid, EquivalenceSweepTest,
    ::testing::Values(
        Combo{"Citations", 0.1, 0.5, 0.3}, Combo{"Citations", 0.5, 0.5, 0.3},
        Combo{"Citations", 0.8, 0.5, 0.3}, Combo{"Citations", 0.5, 0.3, 0.3},
        Combo{"Citations", 0.5, 0.7, 0.3}, Combo{"Citations", 0.5, 0.5, 0.0},
        Combo{"Citations", 0.5, 0.5, 0.6}, Combo{"Citations", 0.2, 0.4, 0.5},
        Combo{"Citations", 0.7, 0.6, 0.2}, Combo{"Anime", 0.5, 0.5, 0.3},
        Combo{"Anime", 0.2, 0.4, 0.5}, Combo{"Bikes", 0.5, 0.5, 0.3},
        Combo{"Bikes", 0.8, 0.3, 0.6}, Combo{"EBooks", 0.5, 0.5, 0.3},
        Combo{"EBooks", 0.1, 0.7, 0.2}, Combo{"Songs", 0.5, 0.5, 0.3},
        Combo{"Songs", 0.7, 0.6, 0.5}),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return std::get<0>(info.param) + "_" + std::to_string(info.index);
    });

// --- Chunked ProcessStream equivalence -----------------------------------

class BatchEquivalenceSweepTest
    : public ::testing::TestWithParam<std::string> {};

struct ReplayResult {
  std::vector<std::pair<int64_t, int64_t>> emitted;  // in emission order
  std::vector<MatchPair> final_set;                  // sorted snapshot
  PruneStats stats;
};

// Deliberately compares only the outcome counters: the sig_* observability
// counters (sig_probes / sig_saturated / sig_rejects) count filter work,
// not results — the unpruned baselines leave them at zero — so they are
// excluded from the bit-identity contract.
void ExpectSameStats(const PruneStats& a, const PruneStats& b) {
  EXPECT_EQ(a.total_pairs, b.total_pairs);
  EXPECT_EQ(a.topic_pruned, b.topic_pruned);
  EXPECT_EQ(a.sim_ub_pruned, b.sim_ub_pruned);
  EXPECT_EQ(a.prob_ub_pruned, b.prob_ub_pruned);
  EXPECT_EQ(a.instance_pruned, b.instance_pruned);
  EXPECT_EQ(a.refined, b.refined);
  EXPECT_EQ(a.matched, b.matched);
}

void ExpectSameReplay(const ReplayResult& got, const ReplayResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.emitted, want.emitted) << label;
  ASSERT_EQ(got.final_set.size(), want.final_set.size()) << label;
  for (size_t i = 0; i < got.final_set.size(); ++i) {
    EXPECT_EQ(got.final_set[i].rid_a, want.final_set[i].rid_a);
    EXPECT_EQ(got.final_set[i].rid_b, want.final_set[i].rid_b);
    EXPECT_DOUBLE_EQ(got.final_set[i].probability,
                     want.final_set[i].probability);
  }
  ExpectSameStats(got.stats, want.stats);
}

TEST_P(BatchEquivalenceSweepTest, ProcessStreamBatch8EqualsProcessArrival) {
  const std::string profile = GetParam();
  constexpr int kBatch = 8;
  ExperimentParams params;
  params.scale = SweepScale(profile);
  params.w = 50;
  params.max_arrivals = 220;
  Experiment experiment(ProfileByName(profile), params);

  // The TER-iDS engine covers grid candidates + the pruning cascade; the
  // con+ER baseline covers linear candidates, the unpruned exact path, and
  // a stateful stream imputer whose OnArrival/OnEvict ordering chunked
  // emission must not disturb.
  for (PipelineKind kind :
       {PipelineKind::kTerIds, PipelineKind::kConstraintEr}) {
    auto replay = [&](bool chunked) {
      std::unique_ptr<Repository> repo = experiment.BuildRepository();
      std::unique_ptr<PipelineBase> pipeline = MakePipeline(
          kind, repo.get(), experiment.MakeConfig(), 2, experiment.cdds(),
          experiment.dds(), experiment.editing_rules());
      std::vector<Record> inc_a = DataGenerator::WithMissing(
          experiment.dataset().source_a, params.xi, params.m, params.seed);
      std::vector<Record> inc_b = DataGenerator::WithMissing(
          experiment.dataset().source_b, params.xi, params.m,
          params.seed + 1);
      StreamDriver driver({inc_a, inc_b});
      ReplayResult result;
      const auto collect = [&result](const ArrivalOutcome& out) {
        for (const MatchPair& p : out.new_matches) {
          result.emitted.emplace_back(p.rid_a, p.rid_b);
        }
      };
      if (chunked) {
        pipeline->ProcessStream(
            &driver, static_cast<size_t>(params.max_arrivals), kBatch,
            [&collect](ArrivalOutcome&& out) { collect(out); });
      } else {
        for (int i = 0; i < params.max_arrivals && driver.HasNext(); ++i) {
          collect(pipeline->ProcessArrival(driver.Next()));
        }
      }
      result.final_set = pipeline->results().ToVector();
      result.stats = pipeline->cumulative_stats();
      return result;
    };

    ExpectSameReplay(replay(/*chunked=*/true), replay(/*chunked=*/false),
                     profile + " " + PipelineKindName(kind));
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, BatchEquivalenceSweepTest,
                         ::testing::Values("Citations", "Anime", "Bikes",
                                           "EBooks", "Songs"),
                         [](const ::testing::TestParamInfo<std::string>&
                                info) { return info.param; });

// --- Storage-backend equivalence -------------------------------------------

// Across every datagen profile, an engine reading the repository through
// MmapSnapshotStorage (snapshot write -> mmap reopen, DESIGN.md §8) must be
// bit-identical to the InMemoryStorage oracle: same per-arrival matches in
// the same order, same final MatchSet, same cumulative PruneStats. TER-iDS
// exercises the full read path (domains, pivot tables, the samples behind
// the determinant join's postings); con+ER additionally exercises the
// dynamic overlay, because its imputer registers stream values into the
// domains after the snapshot was opened.
class RepoBackendEquivalenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RepoBackendEquivalenceTest, MmapSnapshotEqualsInMemoryOracle) {
  const std::string profile = GetParam();
  ExperimentParams params;
  params.scale = SweepScale(profile);
  params.w = 50;
  params.max_arrivals = 220;
  Experiment experiment(ProfileByName(profile), params);

  for (PipelineKind kind :
       {PipelineKind::kTerIds, PipelineKind::kConstraintEr}) {
    auto replay = [&](RepoBackend backend) {
      std::unique_ptr<Repository> repo = experiment.BuildRepository(backend);
      EXPECT_STREQ(repo->backend_name(), RepoBackendName(backend));
      EngineConfig config = experiment.MakeConfig();
      config.repo_backend = backend;
      std::unique_ptr<PipelineBase> pipeline =
          MakePipeline(kind, repo.get(), config, 2, experiment.cdds(),
                       experiment.dds(), experiment.editing_rules());
      std::vector<Record> inc_a = DataGenerator::WithMissing(
          experiment.dataset().source_a, params.xi, params.m, params.seed);
      std::vector<Record> inc_b = DataGenerator::WithMissing(
          experiment.dataset().source_b, params.xi, params.m,
          params.seed + 1);
      StreamDriver driver({inc_a, inc_b});
      ReplayResult result;
      pipeline->ProcessStream(&driver,
                              static_cast<size_t>(params.max_arrivals),
                              /*batch_size=*/1,
                              [&result](ArrivalOutcome&& out) {
                                for (const MatchPair& p : out.new_matches) {
                                  result.emitted.emplace_back(p.rid_a,
                                                              p.rid_b);
                                }
                              });
      result.final_set = pipeline->results().ToVector();
      result.stats = pipeline->cumulative_stats();
      return result;
    };

    ExpectSameReplay(replay(RepoBackend::kMmapSnapshot),
                     replay(RepoBackend::kInMemory),
                     profile + " " + PipelineKindName(kind));
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, RepoBackendEquivalenceTest,
                         ::testing::Values("Citations", "Anime", "Bikes",
                                           "EBooks", "Songs"),
                         [](const ::testing::TestParamInfo<std::string>&
                                info) { return info.param; });

}  // namespace
}  // namespace terids
