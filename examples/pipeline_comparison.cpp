// Runs all six pipelines on one workload and prints an accuracy/efficiency
// comparison table (a miniature of the paper's Figure 5). Arrivals replay
// through ProcessStream, so the chunk size is a command-line choice;
// results are identical for every setting.
//
// Usage: example_pipeline_comparison [dataset] [scale] [batch]
//   dataset: Citations | Anime | Bikes | EBooks | Songs (default Citations)
//   scale:   dataset size factor (default 0.1)
//   batch:   arrivals per ProcessStream chunk (default 1)

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/pipeline.h"
#include "datagen/profiles.h"
#include "eval/experiment.h"

int main(int argc, char** argv) {
  using namespace terids;

  const std::string dataset = argc > 1 ? argv[1] : "Citations";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.1;
  const int batch_size = argc > 3 ? std::atoi(argv[3]) : 1;

  ExperimentParams params;
  params.scale = scale;
  params.w = 150;
  params.max_arrivals = 600;
  params.batch_size = batch_size > 0 ? batch_size : 1;

  Experiment experiment(ProfileByName(dataset), params);
  std::printf(
      "%s (scale %.2f, batch %d): truth pairs in windows = %zu\n",
      dataset.c_str(), scale, params.batch_size,
      experiment.effective_truth().size());
  std::printf("%-10s %12s %10s %10s %10s %10s %9s %9s %9s\n", "pipeline",
              "ms/arrival", "precision", "recall", "F-score", "results",
              "sel(ms)", "imp(ms)", "er(ms)");

  const PipelineKind kinds[] = {
      PipelineKind::kTerIds,     PipelineKind::kIjGer,
      PipelineKind::kCddEr,      PipelineKind::kDdEr,
      PipelineKind::kEditingEr,  PipelineKind::kConstraintEr,
  };
  for (PipelineKind kind : kinds) {
    PipelineRun run = experiment.Run(kind);
    const double n = run.arrivals > 0 ? static_cast<double>(run.arrivals) : 1;
    std::printf(
        "%-10s %12.4f %10.3f %10.3f %10.3f %10zu %9.4f %9.4f %9.4f\n",
        run.name.c_str(), 1e3 * run.avg_arrival_seconds,
        run.accuracy.precision, run.accuracy.recall, run.accuracy.f_score,
        run.accuracy.returned, 1e3 * run.total_cost.cdd_select_seconds / n,
        1e3 * run.total_cost.impute_seconds / n,
        1e3 * run.total_cost.er_seconds / n);
  }
  return 0;
}
