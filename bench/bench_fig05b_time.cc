// Figure 5(b): wall clock time of all six pipelines per dataset.

#include <cstdio>

#include "bench_common.h"
#include "datagen/profiles.h"

int main() {
  using namespace terids;
  using namespace terids::bench;
  ExperimentParams base = BaseParams("Citations");
  const ExecKnobs knobs = BenchKnobs();
  JsonReporter reporter("Figure 5(b)");
  PrintHeader("Figure 5(b)", "wall clock time (ms/arrival) vs data sets",
              base);
  std::printf("%-10s", "dataset");
  for (PipelineKind kind : AllPipelines()) {
    std::printf(" %10s", PipelineKindName(kind));
  }
  std::printf("\n");
  for (const std::string& name : AllDatasets()) {
    Experiment experiment(ProfileByName(name), BaseParams(name));
    std::printf("%-10s", name.c_str());
    for (PipelineKind kind : AllPipelines()) {
      // Arrivals replay through ProcessStream in TERIDS_BENCH_BATCH
      // chunks.
      PipelineRun run = experiment.Run(kind);
      std::printf(" %10.4f", 1e3 * run.avg_arrival_seconds);
      std::fflush(stdout);
      reporter.AddKnobRow(knobs)
          .Str("dataset", name)
          .Str("pipeline", PipelineKindName(kind))
          .Num("ms_per_arrival", 1e3 * run.avg_arrival_seconds)
          .Raw("cost", run.total_cost.PerArrival(run.arrivals).ToJson());
    }
    std::printf("\n");
  }
  std::printf(
      "\npaper shape: TER-iDS fastest; Ij+GER second; con+ER third;\n"
      "DD+ER slowest; EBooks is the most expensive dataset (long\n"
      "description attribute). Gaps grow with |R| and w (see\n"
      "EXPERIMENTS.md on scaling).\n");
  return 0;
}
