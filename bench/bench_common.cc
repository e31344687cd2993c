#include "bench_common.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>

#include "datagen/profiles.h"

namespace terids {
namespace bench {

double EnvScale() {
  const char* env = std::getenv("TERIDS_BENCH_SCALE");
  if (env == nullptr || env[0] == '\0') {
    return 1.0;
  }
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || *end != '\0') {
    std::fprintf(stderr,
                 "TERIDS_BENCH_SCALE: '%s' is not a number (trailing garbage "
                 "rejected); using default 1\n",
                 env);
    return 1.0;
  }
  // The negated form also rejects NaN, which compares false to everything.
  if (!(v > 0.0 && v <= kMaxBenchScale)) {
    std::fprintf(stderr,
                 "TERIDS_BENCH_SCALE: '%s' is not a finite value in (0, %g]; "
                 "using default 1\n",
                 env, kMaxBenchScale);
    return 1.0;
  }
  return v;
}

int EnvInt(const char* name, int fallback, int min_value, int max_value) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') {
    // Unset — and the conventional exported-empty spelling of unset.
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0') {
    std::fprintf(stderr,
                 "%s: '%s' is not an integer (trailing garbage rejected); "
                 "using default %d\n",
                 name, env, fallback);
    return fallback;
  }
  if (errno == ERANGE ||
      v < static_cast<long>(std::numeric_limits<int>::min()) ||
      v > static_cast<long>(std::numeric_limits<int>::max())) {
    std::fprintf(stderr, "%s: '%s' overflows int; using default %d\n", name,
                 env, fallback);
    return fallback;
  }
  if (v < min_value) {
    std::fprintf(stderr, "%s: %ld is below the minimum %d; using default %d\n",
                 name, v, min_value, fallback);
    return fallback;
  }
  if (v > max_value) {
    std::fprintf(stderr, "%s: %ld is above the maximum %d; using default %d\n",
                 name, v, max_value, fallback);
    return fallback;
  }
  return static_cast<int>(v);
}

namespace {

RepoBackend EnvRepoBackend() {
  const char* env = std::getenv("TERIDS_BENCH_REPO_BACKEND");
  RepoBackend backend = RepoBackend::kInMemory;
  if (env == nullptr || env[0] == '\0') {
    return backend;
  }
  if (!ParseRepoBackend(env, &backend)) {
    std::fprintf(stderr,
                 "TERIDS_BENCH_REPO_BACKEND: '%s' is not a backend "
                 "(expected 'memory' or 'mmap'); using default 'memory'\n",
                 env);
  }
  return backend;
}

}  // namespace

ExecKnobs EnvExecKnobs() {
  ExecKnobs knobs;
  knobs.batch_size = EnvInt("TERIDS_BENCH_BATCH", 1, 1);
  knobs.repo_backend = EnvRepoBackend();
  return knobs;
}

double BenchScale() {
  static const double kScale = EnvScale();
  return kScale;
}

const ExecKnobs& BenchKnobs() {
  static const ExecKnobs kKnobs = EnvExecKnobs();
  return kKnobs;
}

ExperimentParams BaseParams(const std::string& dataset) {
  ExperimentParams params;
  // Per-dataset size scale: preserves the relative ordering of Table 4
  // while keeping the one-core suite runtime bounded. Songs (1M tuples in
  // the paper) is scaled hardest.
  double scale = 0.3;
  if (dataset == "EBooks") scale = 0.1;
  if (dataset == "Songs") scale = 0.004;
  params.scale = scale * BenchScale();
  params.w = static_cast<int>(200 * BenchScale());  // paper default w = 1000
  if (params.w < 40) params.w = 40;
  params.max_arrivals = 4 * params.w;
  const ExecKnobs& knobs = BenchKnobs();
  params.batch_size = knobs.batch_size;
  params.repo_backend = knobs.repo_backend;
  return params;
}

const std::vector<std::string>& AllDatasets() {
  static const std::vector<std::string>* kDatasets =
      new std::vector<std::string>{"Citations", "Anime", "Bikes", "EBooks",
                                   "Songs"};
  return *kDatasets;
}

const std::vector<PipelineKind>& AllPipelines() {
  static const std::vector<PipelineKind>* kKinds =
      new std::vector<PipelineKind>{
          PipelineKind::kTerIds,    PipelineKind::kIjGer,
          PipelineKind::kCddEr,     PipelineKind::kDdEr,
          PipelineKind::kEditingEr, PipelineKind::kConstraintEr};
  return *kKinds;
}

const std::vector<PipelineKind>& AccuracyPipelines() {
  // Ij+GER and CDD+ER share TER-iDS's imputation and therefore its
  // F-score; the paper omits them from accuracy plots for the same reason.
  static const std::vector<PipelineKind>* kKinds =
      new std::vector<PipelineKind>{PipelineKind::kTerIds, PipelineKind::kDdEr,
                                    PipelineKind::kEditingEr,
                                    PipelineKind::kConstraintEr};
  return *kKinds;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string NumToJson(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return std::string(buf);
}

}  // namespace

JsonReporter::Row& JsonReporter::Row::Str(const std::string& key,
                                          const std::string& value) {
  return Raw(key, "\"" + JsonEscape(value) + "\"");
}

JsonReporter::Row& JsonReporter::Row::Num(const std::string& key,
                                          double value) {
  return Raw(key, NumToJson(value));
}

JsonReporter::Row& JsonReporter::Row::Raw(const std::string& key,
                                          const std::string& json) {
  if (!body_.empty()) {
    body_ += ",";
  }
  body_ += "\"" + JsonEscape(key) + "\":" + json;
  return *this;
}

JsonReporter::JsonReporter(std::string figure) : figure_(std::move(figure)) {
  const char* env = std::getenv("TERIDS_BENCH_JSON");
  if (env != nullptr && env[0] != '\0') {
    path_ = env;
  }
}

JsonReporter::Row& JsonReporter::AddRow() {
  rows_.emplace_back();
  return rows_.back();
}

JsonReporter::Row& JsonReporter::AddKnobRow(const ExecKnobs& knobs) {
  return AddRow()
      .Num("batch_size", knobs.batch_size)
      .Str("repo_backend", RepoBackendName(knobs.repo_backend));
}

JsonReporter::~JsonReporter() {
  if (path_.empty()) {
    return;
  }
  std::ofstream out(path_);
  if (!out) {
    std::fprintf(stderr, "JsonReporter: cannot open %s\n", path_.c_str());
    return;
  }
  out << "{\"figure\":\"" << JsonEscape(figure_)
      << "\",\"bench_scale\":" << NumToJson(BenchScale()) << ",\"rows\":[";
  for (size_t i = 0; i < rows_.size(); ++i) {
    out << (i == 0 ? "" : ",") << "{" << rows_[i].body_ << "}";
  }
  out << "]}\n";
}

void PrintHeader(const std::string& figure, const std::string& title,
                 const ExperimentParams& params) {
  std::printf("==== %s: %s ====\n", figure.c_str(), title.c_str());
  std::printf(
      "defaults (Table 5, scaled): alpha=%.1f rho=%.1f xi=%.1f eta=%.1f "
      "w=%d m=%d scale=%.3f arrivals=%d bench_scale=%.2f batch=%d "
      "repo=%s\n",
      params.alpha, params.rho, params.xi, params.eta, params.w, params.m,
      params.scale, params.max_arrivals, BenchScale(), params.batch_size,
      RepoBackendName(params.repo_backend));
}

namespace {

void Sweep(const std::string& figure, const std::string& param_name,
           const std::vector<double>& values, const ParamSetter& setter,
           const std::vector<PipelineKind>& kinds, bool report_time) {
  ExperimentParams base = BaseParams("Citations");
  JsonReporter reporter(figure);
  const char* metric_name = report_time ? "ms_per_arrival" : "f_score";
  PrintHeader(figure,
              (report_time ? "wall clock time (ms/arrival) vs "
                           : "F-score vs ") +
                  param_name,
              base);
  for (const std::string& dataset : AllDatasets()) {
    std::printf("\n-- %s --\n%-10s", dataset.c_str(), "pipeline");
    for (double v : values) {
      std::printf(" %s=%-8.3g", param_name.c_str(), v);
    }
    std::printf("\n");
    // One experiment per swept value (dataset contents and rules depend on
    // eta / scale / xi), shared across pipelines for comparability.
    std::vector<std::unique_ptr<Experiment>> experiments;
    for (double v : values) {
      ExperimentParams params = BaseParams(dataset);
      // Sweeps multiply 5-6 values x 5 datasets x 6 pipelines; shrink the
      // per-point workload so a full figure stays in the minutes range on
      // one core (the parameter setter below may still override w).
      params.w = std::min(params.w, 120);
      params.max_arrivals = 3 * params.w;
      setter(&params, v);
      experiments.push_back(
          std::make_unique<Experiment>(ProfileByName(dataset), params));
    }
    for (PipelineKind kind : kinds) {
      std::printf("%-10s", PipelineKindName(kind));
      for (size_t i = 0; i < experiments.size(); ++i) {
        PipelineRun run = experiments[i]->Run(kind);
        const double metric = report_time ? 1e3 * run.avg_arrival_seconds
                                          : run.accuracy.f_score;
        std::printf(" %-11.4f", metric);
        std::fflush(stdout);
        reporter.AddRow()
            .Str("dataset", dataset)
            .Str("pipeline", PipelineKindName(kind))
            .Str("param", param_name)
            .Num("value", values[i])
            .Num(metric_name, metric);
      }
      std::printf("\n");
    }
  }
  std::printf("\n");
}

}  // namespace

void TimeSweep(const std::string& figure, const std::string& param_name,
               const std::vector<double>& values, const ParamSetter& setter,
               const std::vector<PipelineKind>& kinds) {
  Sweep(figure, param_name, values, setter, kinds, /*report_time=*/true);
}

void FscoreSweep(const std::string& figure, const std::string& param_name,
                 const std::vector<double>& values, const ParamSetter& setter,
                 const std::vector<PipelineKind>& kinds) {
  Sweep(figure, param_name, values, setter, kinds, /*report_time=*/false);
}

}  // namespace bench
}  // namespace terids
