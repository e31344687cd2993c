// Scheduler scaling: end-to-end TER-iDS throughput and per-arrival tail
// latency as a function of the shared worker count (sched_threads), with
// the sequential one-at-a-time operator (row "seq") as both the throughput
// baseline and the correctness oracle. Not a paper figure — this tracks the
// ROADMAP item "unified scheduler and tail-latency accounting" (DESIGN.md
// §10) on top of the reproduced system.
//
// Every other row runs the identical arrival sequence with micro-batching
// and parallel refinement enabled; only the worker count varies. Output is
// bit-identical across the whole sweep by the determinism contract, and
// this bench refuses to report numbers if not. Parallel speedups require
// physical cores; a 1-core host shows overhead only.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "datagen/profiles.h"

namespace {

using namespace terids;
using namespace terids::bench;

// Per-arrival phase/e2e histograms plus (sched mode) per-work-item service
// times, as columns of one table row.
void PrintLatencyRow(const std::string& sched, const PipelineRun& run,
                     double throughput, double speedup) {
  const LatencyHistogram& e2e = run.arrival_latency.end_to_end;
  std::printf("%6s %12.4f %12.1f %8.2fx %9.3f %9.3f %9.3f", sched.c_str(),
              1e3 * run.avg_arrival_seconds, throughput, speedup,
              1e3 * e2e.Percentile(0.50), 1e3 * e2e.Percentile(0.99),
              1e3 * e2e.Percentile(0.999));
  for (int p = 0; p < kNumExecPhases; ++p) {
    const LatencyHistogram& phase =
        run.arrival_latency.of(static_cast<ExecPhase>(p));
    std::printf(" %9.3f", 1e3 * phase.Percentile(0.99));
  }
  std::printf("\n");
  std::fflush(stdout);
}

bool SameOutput(const PruneStats& a, const PruneStats& b) {
  return a.total_pairs == b.total_pairs && a.topic_pruned == b.topic_pruned &&
         a.sim_ub_pruned == b.sim_ub_pruned &&
         a.prob_ub_pruned == b.prob_ub_pruned &&
         a.instance_pruned == b.instance_pruned && a.refined == b.refined &&
         a.matched == b.matched;
}

}  // namespace

int main() {
  JsonReporter reporter("scheduler");
  const ExecKnobs env_knobs = BenchKnobs();
  const std::string dataset = "Citations";
  ExperimentParams params = BaseParams(dataset);
  // Refinement fans out on the scheduler: the sweep isolates worker
  // topology, nothing else.
  params.batch_size = 8;
  params.refine_threads = 4;
  Experiment experiment(ProfileByName(dataset), params);
  PrintHeader("scheduler",
              "end-to-end throughput + per-arrival tail latency vs "
              "sched_threads (seq = sequential oracle)",
              params);

  std::printf(
      "\n-- end-to-end TER-iDS, refinement parallel; latency in ms --\n");
  std::printf("%6s %12s %12s %9s %9s %9s %9s %9s %9s %9s %9s\n", "sched",
              "ms/arrival", "arrivals/s", "speedup", "e2e p50", "e2e p99",
              "e2e p999", "ing p99", "cand p99", "ref p99", "mnt p99");

  // The oracle: one arrival at a time, no fan-out, no scheduler.
  EngineConfig sequential = experiment.MakeConfig();
  sequential.batch_size = 1;
  sequential.refine_threads = 1;
  sequential.sched_threads = 0;
  const PipelineRun oracle = experiment.Run(PipelineKind::kTerIds, sequential);
  const double base_throughput =
      oracle.total_seconds > 0
          ? static_cast<double>(oracle.arrivals) / oracle.total_seconds
          : 0.0;
  PrintLatencyRow("seq", oracle, base_throughput, 1.0);
  for (int sched : {1, 2, 4, 8}) {
    EngineConfig config = experiment.MakeConfig();
    config.sched_threads = sched;
    PipelineRun run = experiment.Run(PipelineKind::kTerIds, config);
    const double throughput =
        run.total_seconds > 0
            ? static_cast<double>(run.arrivals) / run.total_seconds
            : 0.0;
    if (!SameOutput(run.stats, oracle.stats) ||
        run.final_result_size != oracle.final_result_size ||
        run.accuracy.f_score != oracle.accuracy.f_score) {
      // The determinism contract is load-bearing for the scheduler; a bench
      // run that violates it must not report numbers as if it passed.
      std::fprintf(stderr,
                   "FATAL: sched_threads=%d changed the pipeline output\n",
                   sched);
      return 1;
    }
    const double speedup =
        base_throughput > 0 ? throughput / base_throughput : 0.0;
    PrintLatencyRow(std::to_string(sched), run, throughput, speedup);
    ExecKnobs knobs = env_knobs;
    knobs.batch_size = params.batch_size;
    knobs.refine_threads = params.refine_threads;
    knobs.sched_threads = sched;
    reporter.AddKnobRow(knobs)
        .Str("dataset", dataset)
        .Num("ms_per_arrival", 1e3 * run.avg_arrival_seconds)
        .Num("arrivals_per_sec", throughput)
        .Num("speedup_vs_sequential", speedup)
        // Per-arrival latency: phase + end-to-end histograms recorded at
        // each emission (p50/p99/p999/mean/max/count per histogram).
        .Raw("arrival_latency", run.arrival_latency.ToJson())
        // Per-work-item service times from the scheduler's worker rings.
        .Raw("sched_item_latency", run.sched_item_latency.ToJson());
  }

  std::printf(
      "\nexpected shape: e2e tail percentiles tighten as workers are added\n"
      "until physical cores are exhausted. Ingest p99 tracks imputation,\n"
      "refine p99 the pair-evaluation fan-out. Every row is bit-identical\n"
      "in output to the sequential seq row.\n");
  return 0;
}
