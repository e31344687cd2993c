// Batch scaling: arrival throughput of the phase-structured operator as a
// function of micro-batch size x refinement threads. Not a paper figure —
// this tracks the ROADMAP scaling items (batched arrivals, parallel
// refinement) on top of the reproduced system.
//
// The workload is deliberately refinement-heavy (unconstrained topic, low
// rho), the regime the executor targets: candidate pairs that survive to
// the Theorem 4.3/4.4 stage dominate arrival cost. TER-iDS exercises the
// pruned cascade; CDD+ER exercises the unpruned exact path, which is
// embarrassingly parallel end-to-end. A row with threads > 1 refines on a
// scheduler of that many workers. Speedups are reported against the 1/1
// configuration of the same dataset x pipeline; thread speedups require
// physical cores (a 1-core host shows batching effects only).

#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "datagen/profiles.h"

int main() {
  using namespace terids;
  using namespace terids::bench;
  JsonReporter reporter("batch_scaling");
  // The backend knobs ride along from the environment (the sweep axes
  // here stay batch x threads).
  const ExecKnobs env_knobs = BenchKnobs();
  const std::vector<std::pair<int, int>> grid = {
      {1, 1}, {8, 1}, {1, 4}, {8, 4}};
  const std::vector<PipelineKind> kinds = {PipelineKind::kTerIds,
                                           PipelineKind::kCddEr};
  const std::vector<std::string> datasets = {"Citations", "Anime"};

  ExperimentParams banner = BaseParams("Citations");
  PrintHeader("batch_scaling",
              "arrival throughput vs batch_size x refine_threads", banner);
  std::printf("%-10s %-8s %6s %8s %14s %14s %9s\n", "dataset", "pipeline",
              "batch", "threads", "ms/arrival", "arrivals/s", "speedup");

  for (const std::string& name : datasets) {
    ExperimentParams params = BaseParams(name);
    // Refinement-heavy regime: no topic constraint (Theorem 4.1 off) and a
    // low similarity threshold so few pairs die at the cheap bound stages.
    params.topics_in_query = 0;
    params.rho = 0.3;
    // Throughput ratios need enough arrivals to rise above timer noise,
    // even under the CI smoke job's aggressive TERIDS_BENCH_SCALE.
    if (params.scale < 0.08) params.scale = 0.08;
    if (params.max_arrivals < 400) params.max_arrivals = 400;
    Experiment experiment(ProfileByName(name), params);
    for (PipelineKind kind : kinds) {
      double base_throughput = 0.0;
      for (const auto& [batch, threads] : grid) {
        EngineConfig config = experiment.MakeConfig();
        config.batch_size = batch;
        config.refine_threads = threads;
        config.sched_threads = threads > 1 ? threads : 0;
        PipelineRun run = experiment.Run(kind, config);
        const double throughput =
            run.total_seconds > 0
                ? static_cast<double>(run.arrivals) / run.total_seconds
                : 0.0;
        if (batch == 1 && threads == 1) {
          base_throughput = throughput;
        }
        const double speedup =
            base_throughput > 0 ? throughput / base_throughput : 0.0;
        std::printf("%-10s %-8s %6d %8d %14.4f %14.1f %8.2fx\n",
                    name.c_str(), PipelineKindName(kind), batch, threads,
                    1e3 * run.avg_arrival_seconds, throughput, speedup);
        std::fflush(stdout);
        ExecKnobs knobs = env_knobs;
        knobs.batch_size = batch;
        knobs.refine_threads = threads;
        knobs.sched_threads = config.sched_threads;
        reporter.AddKnobRow(knobs)
            .Str("dataset", name)
            .Str("pipeline", PipelineKindName(kind))
            .Num("ms_per_arrival", 1e3 * run.avg_arrival_seconds)
            .Num("arrivals_per_sec", throughput)
            .Num("speedup_vs_1x1", speedup)
            .Raw("cost", run.total_cost.PerArrival(run.arrivals).ToJson());
      }
    }
  }
  std::printf(
      "\nexpected shape: threads scale the refinement share of arrival cost\n"
      "(near-linear for the unpruned CDD+ER path on physical cores);\n"
      "micro-batches amortize executor dispatch and widen the parallel\n"
      "section. 1/1 is bit-identical to the pre-batching operator.\n");
  return 0;
}
