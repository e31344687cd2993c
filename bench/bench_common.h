#ifndef TERIDS_BENCH_BENCH_COMMON_H_
#define TERIDS_BENCH_BENCH_COMMON_H_

#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/config.h"
#include "eval/experiment.h"

namespace terids {
namespace bench {

/// The largest accepted TERIDS_BENCH_SCALE: BaseParams derives the window
/// (200 * scale) and the arrival cap (4 * window) as ints, which stay far
/// inside int range up to this value.
inline constexpr double kMaxBenchScale = 10000.0;

/// Global size multiplier from the TERIDS_BENCH_SCALE environment variable
/// (default 1.0). Values < 1 shrink every dataset/window for quick runs;
/// values > 1 approach the paper's sizes at the cost of wall time. Parsed
/// like EnvInt: unset or empty falls back silently, while a value that is
/// not wholly a number ("abc", "0.2x") or not finite and in
/// (0, kMaxBenchScale] is rejected with a one-line stderr message before
/// falling back to 1.0.
double EnvScale();

/// Integer environment knob with bounds. Unset variables fall back to
/// `fallback` silently. A set variable must be a fully valid integer in
/// range: malformed values (empty, non-numeric, trailing garbage like
/// "8x"), values that overflow int, values below `min_value` and values
/// above `max_value` are all rejected with a clear one-line stderr message
/// before falling back — a typo'd knob must never silently reconfigure a
/// benchmark run. The one shared parser behind every TERIDS_BENCH_*
/// execution knob.
int EnvInt(const char* name, int fallback, int min_value,
           int max_value = std::numeric_limits<int>::max());

/// The execution-model knobs, parsed once: the ProcessStream chunk size
/// from TERIDS_BENCH_BATCH (default 1) and the repository storage backend
/// from TERIDS_BENCH_REPO_BACKEND ("memory" | "mmap", default memory).
/// Every bench that replays arrivals through Experiment::Run inherits them
/// via BaseParams, so any figure can be reproduced under either chunk size
/// and storage backend without code changes.
struct ExecKnobs {
  int batch_size = 1;
  RepoBackend repo_backend = RepoBackend::kInMemory;
};
ExecKnobs EnvExecKnobs();

/// EnvScale() and EnvExecKnobs() as this process runs with them: each is
/// parsed on first use only, so a rejected value is reported once however
/// many BaseParams / PrintHeader / JsonReporter calls read it.
double BenchScale();
const ExecKnobs& BenchKnobs();

/// Baseline parameters for one dataset: Table 5 defaults with sizes scaled
/// so the full suite finishes on one core (see EXPERIMENTS.md §Scaling).
/// Paper -> bench mapping: w 1000 -> 200, arrivals capped at 800, dataset
/// scale per profile (Songs is scaled hardest: 1M tuples -> ~16k).
ExperimentParams BaseParams(const std::string& dataset);

/// The paper's five evaluation datasets, in Table 4 order.
const std::vector<std::string>& AllDatasets();

/// All six pipelines of Section 6.1, TER-iDS first.
const std::vector<PipelineKind>& AllPipelines();
/// The four pipelines whose accuracy the paper plots (Figure 5(a)).
const std::vector<PipelineKind>& AccuracyPipelines();

/// Prints the figure banner and the effective parameter values.
void PrintHeader(const std::string& figure, const std::string& title,
                 const ExperimentParams& params);

/// Machine-readable bench output. When the TERIDS_BENCH_JSON environment
/// variable names a file, every row added here is written on destruction as
///   {"figure": "...", "bench_scale": 1.0, "rows": [{...}, ...]}
/// so CI can archive bench results as artifacts. With the variable unset
/// the reporter is a no-op and benches stay pure-stdout.
class JsonReporter {
 public:
  class Row {
   public:
    Row& Str(const std::string& key, const std::string& value);
    Row& Num(const std::string& key, double value);
    /// Splices a pre-rendered JSON value (e.g. CostBreakdown::ToJson()).
    Row& Raw(const std::string& key, const std::string& json);

   private:
    friend class JsonReporter;
    std::string body_;
  };

  explicit JsonReporter(std::string figure);
  ~JsonReporter();
  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  bool enabled() const { return !path_.empty(); }
  Row& AddRow();
  /// AddRow with the effective execution-model knob columns pre-stamped
  /// (batch_size / repo_backend), so artifact rows from different knob
  /// settings stay distinguishable.
  Row& AddKnobRow(const ExecKnobs& knobs);

 private:
  std::string figure_;
  std::string path_;
  // deque, not vector: AddRow() hands out references that must survive
  // later AddRow() calls.
  std::deque<Row> rows_;
};

using ParamSetter = std::function<void(ExperimentParams*, double)>;

/// Sweeps `values` of one parameter over all datasets and pipelines,
/// printing one wall-clock (ms/arrival) table per dataset. Regenerates the
/// paper's efficiency figures (7-10, 16, 17).
void TimeSweep(const std::string& figure, const std::string& param_name,
               const std::vector<double>& values, const ParamSetter& setter,
               const std::vector<PipelineKind>& kinds);

/// Same sweep reporting F-scores (accuracy figures 13-15).
void FscoreSweep(const std::string& figure, const std::string& param_name,
                 const std::vector<double>& values, const ParamSetter& setter,
                 const std::vector<PipelineKind>& kinds);

}  // namespace bench
}  // namespace terids

#endif  // TERIDS_BENCH_BENCH_COMMON_H_
