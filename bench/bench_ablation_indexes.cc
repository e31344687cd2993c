// Ablation bench for the pivot design choice called out in DESIGN.md §5:
// entropy-selected vs random pivots (does the Section 5.4 cost model buy
// pruning power / speed?).

#include <cstdio>

#include "bench_common.h"
#include "core/terids_engine.h"
#include "datagen/profiles.h"
#include "stream/stream_driver.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace terids;

struct AblationResult {
  double ms_per_arrival = 0.0;
  double pruning_power = 0.0;
};

AblationResult RunEngine(const Experiment& experiment,
                         std::unique_ptr<Repository> repo,
                         const EngineConfig& config) {
  TerIdsEngine engine(repo.get(), config, 2, experiment.cdds());
  ExperimentParams params = experiment.params();
  std::vector<Record> inc_a = DataGenerator::WithMissing(
      experiment.dataset().source_a, params.xi, params.m, params.seed);
  std::vector<Record> inc_b = DataGenerator::WithMissing(
      experiment.dataset().source_b, params.xi, params.m, params.seed + 1);
  StreamDriver driver({inc_a, inc_b});
  size_t arrivals = 0;
  Stopwatch watch;
  while (driver.HasNext() &&
         arrivals < static_cast<size_t>(params.max_arrivals)) {
    engine.ProcessArrival(driver.Next());
    ++arrivals;
  }
  AblationResult result;
  result.ms_per_arrival = 1e3 * watch.ElapsedSeconds() / arrivals;
  result.pruning_power = engine.cumulative_stats().TotalPower();
  return result;
}

/// Repository with pivots chosen uniformly at random instead of by the
/// entropy cost model.
std::unique_ptr<Repository> RandomPivotRepo(const Experiment& experiment,
                                            uint64_t seed) {
  const GeneratedDataset& ds = experiment.dataset();
  auto repo = std::make_unique<Repository>(ds.schema.get(), ds.dict.get());
  for (const Record& r : ds.repo_records) {
    TERIDS_CHECK(repo->AddSample(r).ok());
  }
  Rng rng(seed);
  std::vector<AttributePivots> pivots;
  for (int x = 0; x < repo->num_attributes(); ++x) {
    AttributePivots p;
    const AttributeDomain& dom = repo->domain(x);
    const int count = 2;
    for (int a = 0; a < count; ++a) {
      p.pivots.push_back(
          dom.tokens(static_cast<ValueId>(rng.NextBounded(dom.size()))));
    }
    pivots.push_back(std::move(p));
  }
  repo->AttachPivots(std::move(pivots));
  return repo;
}

}  // namespace

int main() {
  using namespace terids::bench;
  ExperimentParams base = BaseParams("Citations");
  JsonReporter reporter("Ablation");
  PrintHeader("Ablation", "index design choices", base);

  std::printf("\nentropy-selected vs random pivots (TER-iDS engine)\n");
  std::printf("%-10s %18s %18s %14s %14s\n", "dataset", "entropy ms/arr",
              "random ms/arr", "entropy prune%", "random prune%");
  for (const std::string& name : {std::string("Citations"),
                                  std::string("Bikes")}) {
    Experiment experiment(ProfileByName(name), BaseParams(name));
    AblationResult entropy = RunEngine(experiment,
                                       experiment.BuildRepository(),
                                       experiment.MakeConfig());
    AblationResult random = RunEngine(
        experiment, RandomPivotRepo(experiment, 99), experiment.MakeConfig());
    std::printf("%-10s %18.4f %18.4f %14.2f %14.2f\n", name.c_str(),
                entropy.ms_per_arrival, random.ms_per_arrival,
                100.0 * entropy.pruning_power, 100.0 * random.pruning_power);
    std::fflush(stdout);
    reporter.AddRow()
        .Str("part", "pivots")
        .Str("dataset", name)
        .Num("entropy_ms_per_arrival", entropy.ms_per_arrival)
        .Num("random_ms_per_arrival", random.ms_per_arrival)
        .Num("entropy_prune_pct", 100.0 * entropy.pruning_power)
        .Num("random_prune_pct", 100.0 * random.pruning_power);
  }

  std::printf(
      "\nexpected: entropy pivots match or beat random pivots in per-arrival\n"
      "cost at equal result quality.\n");
  return 0;
}
