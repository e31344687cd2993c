// From-scratch check of the window store under updates (Berkholz et al.):
// the TER-iDS pipeline runs over generated streams with missing values,
// imputed by the rule-based imputer, and after every arrival its windows
// are checked against a model of the stream. Each window must hold exactly
// its stream's last w rids, every live slot's row must equal the tuple's
// own PairRow with its topic word set, and `CandidateSlots` must equal a
// brute-force list for both probe topic bits; the arrival's pair count and
// tuple-level topic prunes must equal the other window's live and
// non-topical counts. A second check does the same for the result set:
// after every arrival the pipeline's matches must be exactly the
// cross-stream pairs of the live windows whose ExactProbability exceeds
// alpha. A third checks the order contract of each arrival's new matches
// on a pruned and an unpruned pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bound_reference.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "datagen/profiles.h"
#include "er/probability.h"
#include "eval/experiment.h"
#include "stream/sliding_window.h"
#include "stream/stream_driver.h"

namespace terids {
namespace {

class WindowMaintenanceTest : public ::testing::TestWithParam<std::string> {};

/// Dataset scales of the equivalence sweep: EBooks (long token sets) and
/// Songs (the largest profile) stay small.
double Scale(const std::string& profile) {
  if (profile == "EBooks") return 0.012;
  if (profile == "Songs") return 0.002;
  return 0.04;
}

/// The generated two-stream input of `experiment`, `xi` of it missing.
StreamDriver MakeDriver(const Experiment& experiment, double xi) {
  const ExperimentParams& params = experiment.params();
  std::vector<Record> inc_a = DataGenerator::WithMissing(
      experiment.dataset().source_a, xi, params.m, params.seed);
  std::vector<Record> inc_b = DataGenerator::WithMissing(
      experiment.dataset().source_b, xi, params.m, params.seed + 1);
  return StreamDriver({inc_a, inc_b});
}

TEST_P(WindowMaintenanceTest, MaintainedWindowsEqualFromScratch) {
  const std::string profile = GetParam();
  ExperimentParams params;
  params.scale = Scale(profile);
  params.w = 30;
  params.xi = 0.5;
  Experiment experiment(ProfileByName(profile), params);
  std::unique_ptr<Repository> repo = experiment.BuildRepository();
  const EngineConfig config = experiment.MakeConfig();
  std::unique_ptr<PipelineBase> engine = MakePipeline(
      PipelineKind::kTerIds, repo.get(), config, 2, experiment.cdds(),
      experiment.dds(), experiment.editing_rules());
  StreamDriver driver = MakeDriver(experiment, params.xi);

  std::deque<int64_t> model[2];  // each stream's last w rids
  int evictions = 0;
  uint64_t topic_pruned = 0;
  uint64_t candidates = 0;
  for (int arrival = 0; arrival < 240 && driver.HasNext(); ++arrival) {
    const Record r = driver.Next();
    const SlidingWindow& other = engine->window(1 - r.stream_id);
    uint64_t other_non_topical = 0;
    for (size_t s = 0; s < other.size(); ++s) {
      other_non_topical += other.at(s).topic.any ? 0 : 1;
    }
    const size_t other_size = other.size();
    const ArrivalOutcome out = engine->ProcessArrival(r);

    std::deque<int64_t>& own = model[r.stream_id];
    own.push_back(r.rid);
    if (own.size() > static_cast<size_t>(params.w)) {
      own.pop_front();
      ++evictions;
    }
    const SlidingWindow& window = engine->window(r.stream_id);
    const WindowTuple* probe = nullptr;
    for (size_t s = 0; s < window.size(); ++s) {
      if (window.at(s).rid() == r.rid) {
        probe = &window.at(s);
      }
    }
    ASSERT_NE(probe, nullptr) << "arrival " << arrival;
    ASSERT_EQ(out.stats.total_pairs, other_size) << "arrival " << arrival;
    ASSERT_EQ(out.stats.topic_pruned,
              probe->topic.any ? 0u : other_non_topical)
        << "arrival " << arrival;

    for (int stream = 0; stream < 2; ++stream) {
      const SlidingWindow& live = engine->window(stream);
      const size_t stride = repo->row_layout().stride();
      std::vector<int64_t> rids;
      for (size_t s = 0; s < live.size(); ++s) {
        const WindowTuple& wt = live.at(s);
        rids.push_back(wt.rid());
        const std::vector<double> want_row =
            testing_util::WindowRowOf(wt.tuple, wt.topic.any);
        ASSERT_EQ(std::memcmp(live.rows() + s * stride, want_row.data(),
                              stride * sizeof(double)),
                  0)
            << "arrival " << arrival << " rid " << wt.rid();
      }
      std::sort(rids.begin(), rids.end());
      std::vector<int64_t> want_rids(model[stream].begin(),
                                     model[stream].end());
      std::sort(want_rids.begin(), want_rids.end());
      ASSERT_EQ(rids, want_rids) << "arrival " << arrival;

      for (bool probe_topical : {false, true}) {
        std::vector<uint32_t> want;
        uint64_t want_topic_pruned = 0;
        for (size_t s = 0; s < live.size(); ++s) {
          if (probe_topical || live.at(s).topic.any) {
            want.push_back(static_cast<uint32_t>(s));
          } else {
            ++want_topic_pruned;
          }
        }
        std::vector<uint32_t> got;
        ASSERT_EQ(live.CandidateSlots(probe_topical, &got),
                  want_topic_pruned)
            << "arrival " << arrival;
        ASSERT_EQ(got, want) << "arrival " << arrival;
        topic_pruned += want_topic_pruned;
        candidates += got.size();
      }
    }
  }
  EXPECT_GT(evictions, 0);
  EXPECT_GT(topic_pruned, 0u);
  EXPECT_GT(candidates, 0u);
}

TEST_P(WindowMaintenanceTest, MaintainedResultsEqualFreshEvaluation) {
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
  StreamDriver driver = MakeDriver(experiment, params.xi);
  size_t max_matches = 0;
  int evicted_matches = 0;
  size_t previous = 0;
  for (int arrival = 0; arrival < 240 && driver.HasNext(); ++arrival) {
    const ArrivalOutcome out = engine->ProcessArrival(driver.Next());
    std::vector<std::pair<int64_t, int64_t>> want;
    const SlidingWindow& w0 = base->window(0);
    const SlidingWindow& w1 = base->window(1);
    for (size_t i = 0; i < w0.size(); ++i) {
      for (size_t j = 0; j < w1.size(); ++j) {
        const WindowTuple& a = w0.at(i);
        const WindowTuple& b = w1.at(j);
        if (ExactProbability(a.tuple, a.topic, b.tuple, b.topic,
                             config.gamma) > config.alpha) {
          want.emplace_back(std::min(a.rid(), b.rid()),
                            std::max(a.rid(), b.rid()));
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

/// Each arrival's new matches are sorted by (rid_a, rid_b), on the pruned
/// path and the unpruned one, although the windows keep no rid order. A
/// low similarity threshold gives arrivals several matches each.
TEST_P(WindowMaintenanceTest, NewMatchesAreSortedByRid) {
  const std::string profile = GetParam();
  ExperimentParams params;
  params.scale = Scale(profile);
  params.w = 40;
  params.xi = 0.3;
  params.rho = 0.1;
  params.alpha = 0.1;
  Experiment experiment(ProfileByName(profile), params);
  std::unique_ptr<Repository> repo = experiment.BuildRepository();
  const EngineConfig config = experiment.MakeConfig();
  for (PipelineKind kind : {PipelineKind::kTerIds, PipelineKind::kCddEr}) {
    std::unique_ptr<PipelineBase> engine = MakePipeline(
        kind, repo.get(), config, 2, experiment.cdds(), experiment.dds(),
        experiment.editing_rules());
    StreamDriver driver = MakeDriver(experiment, params.xi);
    int multi_match_arrivals = 0;
    for (int arrival = 0; arrival < 240 && driver.HasNext(); ++arrival) {
      const std::vector<MatchPair> matches =
          engine->ProcessArrival(driver.Next()).new_matches;
      for (size_t i = 1; i < matches.size(); ++i) {
        ASSERT_LT(std::tie(matches[i - 1].rid_a, matches[i - 1].rid_b),
                  std::tie(matches[i].rid_a, matches[i].rid_b))
            << engine->name() << " arrival " << arrival;
      }
      multi_match_arrivals += matches.size() > 1;
    }
    EXPECT_GT(multi_match_arrivals, 0) << engine->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, WindowMaintenanceTest,
                         ::testing::Values("Citations", "Anime", "Bikes",
                                           "EBooks", "Songs"));

}  // namespace
}  // namespace terids
