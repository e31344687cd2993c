// Table 4: the tested (generated) data sets — sizes and planted matches —
// plus a TER-iDS arrival-throughput column measured through ProcessStream
// (TERIDS_BENCH_BATCH knob).

#include <cstdio>

#include "bench_common.h"
#include "datagen/generator.h"
#include "datagen/profiles.h"

int main() {
  using namespace terids;
  using namespace terids::bench;
  ExperimentParams base = BaseParams("Citations");
  const ExecKnobs knobs = BenchKnobs();
  JsonReporter reporter("Table 4");
  PrintHeader("Table 4", "the tested data sets (generated substitutes)",
              base);
  std::printf("%-10s %10s %12s %12s %12s %14s %6s %12s\n", "dataset",
              "attributes", "|SourceA|", "|SourceB|", "|repository|",
              "planted pairs", "scale", "arrivals/s");
  for (const std::string& name : AllDatasets()) {
    const DatasetProfile profile = ProfileByName(name);
    ExperimentParams params = BaseParams(name);
    Experiment experiment(profile, params);
    const GeneratedDataset& ds = experiment.dataset();
    PipelineRun run = experiment.Run(PipelineKind::kTerIds);
    const double throughput =
        run.total_seconds > 0
            ? static_cast<double>(run.arrivals) / run.total_seconds
            : 0.0;
    std::printf("%-10s %10d %12zu %12zu %12zu %14zu %6.3f %12.1f\n",
                name.c_str(), profile.num_attributes(), ds.source_a.size(),
                ds.source_b.size(), ds.repo_records.size(),
                ds.ground_truth.size(), params.scale, throughput);
    reporter.AddKnobRow(knobs)
        .Str("dataset", name)
        .Num("attributes", profile.num_attributes())
        .Num("source_a", static_cast<double>(ds.source_a.size()))
        .Num("source_b", static_cast<double>(ds.source_b.size()))
        .Num("repository", static_cast<double>(ds.repo_records.size()))
        .Num("planted_pairs", static_cast<double>(ds.ground_truth.size()))
        .Num("scale", params.scale)
        .Num("terids_arrivals_per_sec", throughput);
  }
  std::printf(
      "\npaper sizes: Citations 2614/2294 (2224 matches), Anime 4000/4000\n"
      "(10704), Bikes 4786/9003 (13815), EBooks 6500/14112 (16719),\n"
      "Songs 1M/1M (1292023). Generated sets are scaled per column 'scale'.\n");
  return 0;
}
