// From-scratch check of the ER-grid under updates (Berkholz et al.): the
// grid is maintained exactly as the pipeline's MaintainPhase does it —
// push into a real per-stream SlidingWindow, insert the arrival, remove
// the tuple the window evicted — over generated streams with missing
// values, imputed by the rule-based imputer. After every arrival the
// maintained grid must answer exactly as a grid freshly built from the
// live window tuples: same candidates in the same order, same four
// counters, for both topic_constrained values — and every live tuple's
// slab row must equal the tuple's own PairRow with its topic word set. A second
// check does the same for the result set: after every arrival the
// pipeline's matches must be exactly the cross-stream pairs of the live
// windows whose ExactProbability exceeds alpha.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bound_reference.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "datagen/profiles.h"
#include "er/probability.h"
#include "eval/experiment.h"
#include "imputation/rule_based_imputer.h"
#include "stream/sliding_window.h"
#include "stream/stream_driver.h"
#include "synopsis/er_grid.h"

namespace terids {
namespace {

class GridMaintenanceTest : public ::testing::TestWithParam<std::string> {};

/// Dataset scales of the equivalence sweep: EBooks (long token sets) and
/// Songs (the largest profile) stay small.
double Scale(const std::string& profile) {
  if (profile == "EBooks") return 0.012;
  if (profile == "Songs") return 0.002;
  return 0.04;
}

std::vector<int64_t> Rids(const ErGrid::CandidateResult& result) {
  std::vector<int64_t> rids;
  for (const WindowTuple* wt : result.candidates) {
    rids.push_back(wt->rid());
  }
  return rids;
}

TEST_P(GridMaintenanceTest, MaintainedGridEqualsFreshGrid) {
  const std::string profile = GetParam();
  ExperimentParams params;
  params.scale = Scale(profile);
  params.w = 30;
  params.xi = 0.5;
  Experiment experiment(ProfileByName(profile), params);
  std::unique_ptr<Repository> repo = experiment.BuildRepository();
  const EngineConfig config = experiment.MakeConfig();
  const int dims = repo->num_attributes();
  // Fine cells, so imputed tuples span several.
  const double cell_width = 0.05;
  // The experiment's gamma rarely prunes a cell; higher ones do.
  const std::vector<double> gammas = {experiment.gamma(), 0.75 * dims,
                                      0.9 * dims};

  RuleBasedImputer imputer(repo.get(), experiment.cdds(),
                           /*max_candidates_per_attr=*/16);
  const TopicQuery topic(repo->dict(), config.keywords);
  std::vector<Record> inc_a = DataGenerator::WithMissing(
      experiment.dataset().source_a, params.xi, params.m, params.seed);
  std::vector<Record> inc_b = DataGenerator::WithMissing(
      experiment.dataset().source_b, params.xi, params.m, params.seed + 1);
  StreamDriver driver({inc_a, inc_b});

  std::vector<SlidingWindow> windows(2, SlidingWindow(params.w));
  ErGrid grid(dims, cell_width);
  int evictions = 0;
  int multi_cell_tuples = 0;
  uint64_t sim_pruned = 0;
  uint64_t topic_pruned = 0;
  for (int arrival = 0; arrival < 240 && driver.HasNext(); ++arrival) {
    const Record r = driver.Next();
    auto wt = std::make_shared<WindowTuple>();
    wt->tuple = std::make_shared<const ImputedTuple>(
        r.IsComplete()
            ? ImputedTuple::FromComplete(r, repo.get())
            : ImputedTuple::FromImputation(r, repo.get(),
                                           imputer.ImputeRecord(r, nullptr),
                                           config.max_instances));
    wt->topic = topic.Classify(*wt->tuple);
    std::set<std::vector<int32_t>> cells;
    for (int m = 0; m < wt->tuple->num_instances(); ++m) {
      std::vector<int32_t> coords(dims);
      for (int k = 0; k < dims; ++k) {
        coords[k] = static_cast<int32_t>(
            std::floor(wt->tuple->instance_coord(m, k) / cell_width));
      }
      cells.insert(coords);
    }
    multi_cell_tuples += cells.size() >= 2;

    // MaintainPhase: push, insert, remove the evicted tuple.
    std::shared_ptr<WindowTuple> evicted =
        windows[r.stream_id].Push(wt);
    grid.Insert(wt.get());
    if (evicted != nullptr) {
      ASSERT_TRUE(grid.Remove(evicted.get()));
      ++evictions;
    }

    ErGrid fresh(dims, cell_width);
    for (const SlidingWindow& window : windows) {
      for (const auto& live : window.tuples()) {
        fresh.Insert(live.get());
      }
    }
    ASSERT_EQ(grid.num_tuples(), fresh.num_tuples());
    ASSERT_EQ(grid.num_cells(), fresh.num_cells()) << "arrival " << arrival;
    for (const SlidingWindow& window : windows) {
      for (const auto& live : window.tuples()) {
        const double* got_row = grid.row_of(live->rid());
        ASSERT_NE(got_row, nullptr) << "rid " << live->rid();
        const std::vector<double> want_row =
            testing_util::GridRowOf(*live->tuple, live->topic.any);
        ASSERT_EQ(std::memcmp(got_row, want_row.data(),
                              want_row.size() * sizeof(double)),
                  0)
            << "arrival " << arrival << " rid " << live->rid();
      }
    }
    std::vector<const WindowTuple*> probes = {wt.get()};
    if (evicted != nullptr) {
      probes.push_back(evicted.get());
    }
    for (const WindowTuple* probe : probes) {
      for (double gamma : gammas) {
        for (bool constrained : {false, true}) {
          const auto got = grid.Candidates(*probe, gamma, constrained);
          const auto want = fresh.Candidates(*probe, gamma, constrained);
          ASSERT_EQ(got.candidates, want.candidates)
              << "arrival " << arrival << " gamma " << gamma << ": rids "
              << ::testing::PrintToString(Rids(got)) << " vs "
              << ::testing::PrintToString(Rids(want));
          ASSERT_EQ(got.topic_pruned, want.topic_pruned)
              << "arrival " << arrival;
          ASSERT_EQ(got.sim_pruned, want.sim_pruned) << "arrival " << arrival;
          ASSERT_EQ(got.cells_visited, want.cells_visited)
              << "arrival " << arrival;
          ASSERT_EQ(got.cells_pruned, want.cells_pruned)
              << "arrival " << arrival;
          sim_pruned += got.sim_pruned;
          topic_pruned += got.topic_pruned;
        }
      }
    }
  }
  EXPECT_GT(evictions, 0);
  EXPECT_GT(multi_cell_tuples, 0) << "no imputed tuple spanned several cells";
  EXPECT_GT(sim_pruned, 0u);
  EXPECT_GT(topic_pruned, 0u);
}

TEST_P(GridMaintenanceTest, MaintainedResultsEqualFreshEvaluation) {
  const std::string profile = GetParam();
  ExperimentParams params;
  params.scale = Scale(profile);
  params.w = 40;
  params.xi = 0.3;
  params.alpha = 0.3;
  Experiment experiment(ProfileByName(profile), params);
  std::unique_ptr<Repository> repo = experiment.BuildRepository();
  const EngineConfig config = experiment.MakeConfig();
  std::unique_ptr<PipelineBase> engine = MakePipeline(
      PipelineKind::kTerIds, repo.get(), config, 2, experiment.cdds(),
      experiment.dds(), experiment.editing_rules());
  const auto* base = dynamic_cast<const PipelineBase*>(engine.get());
  ASSERT_NE(base, nullptr);
  std::vector<Record> inc_a = DataGenerator::WithMissing(
      experiment.dataset().source_a, params.xi, params.m, params.seed);
  std::vector<Record> inc_b = DataGenerator::WithMissing(
      experiment.dataset().source_b, params.xi, params.m, params.seed + 1);
  StreamDriver driver({inc_a, inc_b});
  size_t max_matches = 0;
  int evicted_matches = 0;
  size_t previous = 0;
  for (int arrival = 0; arrival < 240 && driver.HasNext(); ++arrival) {
    const ArrivalOutcome out = engine->ProcessArrival(driver.Next());
    std::vector<std::pair<int64_t, int64_t>> want;
    for (const auto& a : base->window(0).tuples()) {
      for (const auto& b : base->window(1).tuples()) {
        if (ExactProbability(*a->tuple, a->topic, *b->tuple, b->topic,
                             config.gamma) > config.alpha) {
          want.emplace_back(std::min(a->rid(), b->rid()),
                            std::max(a->rid(), b->rid()));
        }
      }
    }
    std::sort(want.begin(), want.end());
    std::vector<std::pair<int64_t, int64_t>> got;
    for (const MatchPair& p : engine->results().ToVector()) {
      got.emplace_back(p.rid_a, p.rid_b);
      ASSERT_TRUE(engine->results().Contains(p.rid_b, p.rid_a));
      ASSERT_EQ(engine->results().ProbabilityOf(p.rid_a, p.rid_b),
                p.probability);
    }
    ASSERT_EQ(got, want) << "arrival " << arrival;
    ASSERT_EQ(engine->results().size(), got.size());
    evicted_matches += previous + out.new_matches.size() > got.size();
    previous = got.size();
    max_matches = std::max(max_matches, got.size());
  }
  EXPECT_GT(max_matches, 0u);
  EXPECT_GT(evicted_matches, 0)
      << "no eviction removed a match; max " << max_matches;
}

INSTANTIATE_TEST_SUITE_P(Profiles, GridMaintenanceTest,
                         ::testing::Values("Citations", "Anime", "Bikes",
                                           "EBooks", "Songs"));

}  // namespace
}  // namespace terids
