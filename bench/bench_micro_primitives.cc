// Google-benchmark microbenchmarks of the hot primitives: Jaccard over
// interned token sets, window churn, the batched pair cascade over a
// window's rows with refinement of its survivors, and end-to-end
// TER-iDS arrival processing.
//
// Results additionally flow through the shared JsonReporter (set
// TERIDS_BENCH_JSON) by bridging Google Benchmark's reporter interface, so
// this bench emits the same machine-readable artifacts as every
// custom-output bench.

#include <benchmark/benchmark.h>

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "bench_common.h"
#include "core/terids_engine.h"
#include "datagen/profiles.h"
#include "er/pruning.h"
#include "stream/sliding_window.h"
#include "stream/stream_driver.h"
#include "text/token_set.h"
#include "tuple/imputed_tuple.h"
#include "util/rng.h"

namespace {

using namespace terids;

TokenSet RandomSet(Rng* rng, int size, int vocab) {
  std::vector<Token> tokens;
  for (int i = 0; i < size; ++i) {
    tokens.push_back(static_cast<Token>(rng->NextBounded(vocab)));
  }
  return TokenSet::FromTokens(std::move(tokens));
}

void BM_JaccardSimilarity(benchmark::State& state) {
  Rng rng(1);
  const int size = static_cast<int>(state.range(0));
  TokenSet a = RandomSet(&rng, size, 10000);
  TokenSet b = RandomSet(&rng, size, 10000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaccardSimilarity(a, b));
  }
}
BENCHMARK(BM_JaccardSimilarity)->Arg(8)->Arg(32)->Arg(128);

Experiment* SharedCitationsExperiment() {
  using namespace terids::bench;
  ExperimentParams params = BaseParams("Citations");
  params.max_arrivals = 1;  // Offline phase only in the fixture.
  static Experiment* experiment =
      new Experiment(ProfileByName("Citations"), params);
  return experiment;
}

// Steady-state window maintenance and candidate scan at w = 1000 per
// stream over complete EBooks tuples (the ebooks_refine replay's window
// shape): each item is one arrival, alternating streams, that lists the
// other window's candidate slots and is pushed into its own window,
// overwriting the oldest slot, as the pipeline's candidate and maintain
// phases do. Evicted tuples rejoin their stream's pool, so the loop moves
// tuples and never rebuilds one.
void BM_WindowChurn(benchmark::State& state) {
  using namespace terids::bench;
  const size_t w = 1000;
  ExperimentParams params = BaseParams("EBooks");
  params.scale = 0.3;
  params.max_arrivals = 1;  // Offline phase only.
  Experiment experiment(ProfileByName("EBooks"), params);
  std::unique_ptr<Repository> repo = experiment.BuildRepository();
  const TopicQuery all_topics;
  std::deque<WindowTuple> pools[2];
  const std::vector<Record>* sources[2] = {&experiment.dataset().source_a,
                                           &experiment.dataset().source_b};
  for (int s = 0; s < 2; ++s) {
    for (const Record& r : *sources[s]) {
      WindowTuple wt{ImputedTuple::FromComplete(r, repo.get()), {}};
      wt.topic = all_topics.Classify(wt.tuple);
      pools[s].push_back(std::move(wt));
    }
    // A tuple re-enters its window only after it left it.
    if (pools[s].size() <= w) {
      state.SkipWithError("EBooks source smaller than the window");
      return;
    }
  }
  SlidingWindow windows[2] = {SlidingWindow(static_cast<int>(w)),
                              SlidingWindow(static_cast<int>(w))};
  std::vector<uint32_t> slots;
  auto arrive = [&](int s, bool probe) {
    WindowTuple wt = std::move(pools[s].front());
    pools[s].pop_front();
    if (probe) {
      slots.clear();
      benchmark::DoNotOptimize(
          windows[1 - s].CandidateSlots(wt.topic.any, &slots));
      benchmark::DoNotOptimize(slots.data());
    }
    std::optional<WindowTuple> evicted = windows[s].Push(std::move(wt));
    if (evicted.has_value()) {
      pools[s].push_back(std::move(*evicted));
    }
  };
  for (size_t i = 0; i < 2 * w; ++i) {
    arrive(static_cast<int>(i % 2), /*probe=*/false);
  }
  size_t arrivals = 0;
  for (auto _ : state) {
    arrive(static_cast<int>(arrivals++ % 2), /*probe=*/true);
  }
  state.SetItemsProcessed(static_cast<int64_t>(arrivals));
}
BENCHMARK(BM_WindowChurn);

// One EBooks-shaped probe against the 1000 candidates of a full stream-A
// window of complete EBooks tuples (the ebooks_refine pair shape):
// EvaluateCandidates over the window's rows, then RefinePair on the
// pairs it passes, as the pipeline does. Probes rotate over 64 stream-B
// tuples whose candidate slots are listed untimed. Items are candidate
// pairs.
void BM_PairCascade(benchmark::State& state) {
  using namespace terids::bench;
  const size_t w = 1000;
  const size_t num_probes = 64;
  ExperimentParams params = BaseParams("EBooks");
  params.scale = 0.3;
  params.rho = 0.3;
  params.max_arrivals = 1;  // Offline phase only.
  Experiment experiment(ProfileByName("EBooks"), params);
  std::unique_ptr<Repository> repo = experiment.BuildRepository();
  const EngineConfig config = experiment.MakeConfig();
  const TopicQuery all_topics;
  const std::vector<Record>& source_a = experiment.dataset().source_a;
  const std::vector<Record>& source_b = experiment.dataset().source_b;
  if (source_a.size() < w || source_b.size() < num_probes) {
    state.SkipWithError("EBooks sources smaller than the window");
    return;
  }
  auto make = [&](Record r, int stream) {
    r.stream_id = stream;
    WindowTuple wt{ImputedTuple::FromComplete(std::move(r), repo.get()), {}};
    wt.topic = all_topics.Classify(wt.tuple);
    return wt;
  };
  SlidingWindow window(static_cast<int>(w));
  for (size_t i = 0; i < w; ++i) {
    window.Push(make(source_a[i], 0));
  }
  struct Probe {
    WindowTuple wt;
    std::vector<uint32_t> slots;
  };
  std::vector<Probe> probes;
  for (size_t i = 0; i < num_probes; ++i) {
    Probe probe{make(source_b[i], 1), {}};
    window.CandidateSlots(probe.wt.topic.any, &probe.slots);
    probes.push_back(std::move(probe));
  }
  std::vector<PairEvaluation> evals;
  std::vector<uint32_t> passed;
  size_t pairs = 0;
  size_t next = 0;
  for (auto _ : state) {
    const Probe& probe = probes[next++ % probes.size()];
    const ImputedTuple& q = probe.wt.tuple;
    EvaluateCandidates(q.row_layout(), q.row(), probe.wt.topic.any,
                       window.rows(), probe.slots.data(), probe.slots.size(),
                       config.gamma, config.alpha, &evals, &passed);
    uint64_t matched = 0;
    for (uint32_t i : passed) {
      const WindowTuple& cand = window.at(probe.slots[i]);
      matched += RefinePair(q, probe.wt.topic, cand.tuple, cand.topic,
                            config.gamma, config.alpha)
                     .matched();
    }
    benchmark::DoNotOptimize(matched);
    pairs += probe.slots.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(pairs));
}
BENCHMARK(BM_PairCascade);

void BM_TerIdsArrival(benchmark::State& state) {
  Experiment* experiment = SharedCitationsExperiment();
  std::unique_ptr<Repository> repo = experiment->BuildRepository();
  auto engine = std::make_unique<TerIdsEngine>(
      repo.get(), experiment->MakeConfig(), 2, experiment->cdds());
  std::vector<Record> inc_a = DataGenerator::WithMissing(
      experiment->dataset().source_a, 0.3, 1, 1);
  std::vector<Record> inc_b = DataGenerator::WithMissing(
      experiment->dataset().source_b, 0.3, 1, 2);
  StreamDriver driver({inc_a, inc_b});
  for (auto _ : state) {
    if (!driver.HasNext()) {
      // Replaying the stream re-feeds rids that may still be
      // window-resident; restart the engine with it.
      state.PauseTiming();
      driver.Reset();
      engine = std::make_unique<TerIdsEngine>(
          repo.get(), experiment->MakeConfig(), 2, experiment->cdds());
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(engine->ProcessArrival(driver.Next()));
  }
}
BENCHMARK(BM_TerIdsArrival);

/// Forwards every finished run into the shared bench JSON artifact while
/// delegating the human-readable table to the stock console reporter.
class JsonBridgeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonBridgeReporter(terids::bench::JsonReporter* json)
      : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      json_->AddRow()
          .Str("name", run.benchmark_name())
          .Num("iterations", static_cast<double>(run.iterations))
          .Num("real_time_ns", run.GetAdjustedRealTime())
          .Num("cpu_time_ns", run.GetAdjustedCPUTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  terids::bench::JsonReporter* json_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  terids::bench::JsonReporter json("micro_primitives");
  JsonBridgeReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
