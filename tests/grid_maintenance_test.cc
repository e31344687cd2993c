// From-scratch check of the window row store under updates (Berkholz et
// al.): WindowRows is maintained exactly as the pipeline's MaintainPhase
// does it — push into a real per-stream SlidingWindow, insert the arrival,
// remove the tuple the window evicted — over generated streams with
// missing values, imputed by the rule-based imputer. After every arrival
// every live tuple's slab row must equal the tuple's own PairRow with its
// topic word set, and `Candidates` must equal a brute-force list built
// from the two windows — the other stream's tuples in ascending rid order,
// minus the tuple-level Theorem 4.1 prunes — for both topic_constrained
// values. A second check does the same for the result set: after every
// arrival the pipeline's matches must be exactly the cross-stream pairs of
// the live windows whose ExactProbability exceeds alpha.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
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
#include "synopsis/window_rows.h"

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

std::vector<int64_t> Rids(const std::vector<const WindowTuple*>& tuples) {
  std::vector<int64_t> rids;
  for (const WindowTuple* wt : tuples) {
    rids.push_back(wt->rid());
  }
  return rids;
}

TEST_P(GridMaintenanceTest, MaintainedRowsEqualWindows) {
  const std::string profile = GetParam();
  ExperimentParams params;
  params.scale = Scale(profile);
  params.w = 30;
  params.xi = 0.5;
  Experiment experiment(ProfileByName(profile), params);
  std::unique_ptr<Repository> repo = experiment.BuildRepository();
  const EngineConfig config = experiment.MakeConfig();

  RuleBasedImputer imputer(repo.get(), experiment.cdds(),
                           /*max_candidates_per_attr=*/16);
  const TopicQuery topic(repo->dict(), config.keywords);
  std::vector<Record> inc_a = DataGenerator::WithMissing(
      experiment.dataset().source_a, params.xi, params.m, params.seed);
  std::vector<Record> inc_b = DataGenerator::WithMissing(
      experiment.dataset().source_b, params.xi, params.m, params.seed + 1);
  StreamDriver driver({inc_a, inc_b});

  std::vector<SlidingWindow> windows(2, SlidingWindow(params.w));
  WindowRows rows;
  int evictions = 0;
  uint64_t topic_pruned = 0;
  uint64_t candidates = 0;
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

    // MaintainPhase: push, insert, remove the evicted tuple.
    std::shared_ptr<WindowTuple> evicted =
        windows[r.stream_id].Push(wt);
    rows.Insert(wt.get());
    if (evicted != nullptr) {
      ASSERT_TRUE(rows.Remove(evicted.get()));
      ++evictions;
    }

    size_t live_tuples = 0;
    for (const SlidingWindow& window : windows) {
      for (const auto& live : window.tuples()) {
        ++live_tuples;
        const double* got_row = rows.row_of(live->rid());
        ASSERT_NE(got_row, nullptr) << "rid " << live->rid();
        const std::vector<double> want_row =
            testing_util::WindowRowOf(*live->tuple, live->topic.any);
        ASSERT_EQ(std::memcmp(got_row, want_row.data(),
                              want_row.size() * sizeof(double)),
                  0)
            << "arrival " << arrival << " rid " << live->rid();
      }
    }
    ASSERT_EQ(rows.num_tuples(), live_tuples);
    if (evicted != nullptr) {
      ASSERT_EQ(rows.row_of(evicted->rid()), nullptr);
    }

    std::vector<const WindowTuple*> probes = {wt.get()};
    if (evicted != nullptr) {
      probes.push_back(evicted.get());
    }
    const size_t stride = wt->tuple->row_layout().stride();
    for (const WindowTuple* probe : probes) {
      for (bool constrained : {false, true}) {
        const bool probe_pass = !constrained || probe->topic.any;
        std::vector<const WindowTuple*> want;
        uint64_t want_topic_pruned = 0;
        for (const auto& live : windows[1 - probe->stream_id()].tuples()) {
          if (probe_pass || live->topic.any) {
            want.push_back(live.get());
          } else {
            ++want_topic_pruned;
          }
        }
        std::sort(want.begin(), want.end(),
                  [](const WindowTuple* a, const WindowTuple* b) {
                    return a->rid() < b->rid();
                  });
        const WindowRows::CandidateResult got =
            rows.Candidates(*probe, constrained);
        ASSERT_EQ(got.candidates, want)
            << "arrival " << arrival << ": rids "
            << ::testing::PrintToString(Rids(got.candidates)) << " vs "
            << ::testing::PrintToString(Rids(want));
        ASSERT_EQ(got.topic_pruned, want_topic_pruned)
            << "arrival " << arrival;
        ASSERT_EQ(got.slots.size(), want.size());
        for (size_t c = 0; c < want.size(); ++c) {
          ASSERT_EQ(rows.rows() + got.slots[c] * stride,
                    rows.row_of(want[c]->rid()))
              << "arrival " << arrival << " rid " << want[c]->rid();
        }
        topic_pruned += got.topic_pruned;
        candidates += got.candidates.size();
      }
    }
  }
  EXPECT_GT(evictions, 0);
  EXPECT_GT(topic_pruned, 0u);
  EXPECT_GT(candidates, 0u);
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
