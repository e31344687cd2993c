#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "bench_common.h"

namespace terids {
namespace bench {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class JsonReporterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The expected documents assume the default scale of 1.
    unsetenv("TERIDS_BENCH_SCALE");
    path_ = ::testing::TempDir() + "/bench_json_test.json";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    unsetenv("TERIDS_BENCH_JSON");
    std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(JsonReporterTest, DisabledWithoutEnvVar) {
  unsetenv("TERIDS_BENCH_JSON");
  {
    JsonReporter reporter("Figure X");
    EXPECT_FALSE(reporter.enabled());
    reporter.AddRow().Str("dataset", "Citations").Num("f_score", 0.9);
  }
  EXPECT_EQ(ReadFile(path_), "");
}

TEST_F(JsonReporterTest, WritesDocumentOnDestruction) {
  setenv("TERIDS_BENCH_JSON", path_.c_str(), 1);
  {
    JsonReporter reporter("Figure X");
    EXPECT_TRUE(reporter.enabled());
    reporter.AddRow().Str("dataset", "Citations").Num("f_score", 0.5);
    reporter.AddRow().Str("dataset", "Anime").Num("pairs", 42);
  }
  EXPECT_EQ(ReadFile(path_),
            "{\"figure\":\"Figure X\",\"bench_scale\":1,\"rows\":["
            "{\"dataset\":\"Citations\",\"f_score\":0.5},"
            "{\"dataset\":\"Anime\",\"pairs\":42}]}\n");
}

TEST_F(JsonReporterTest, EmptyRunYieldsEmptyRowsArray) {
  setenv("TERIDS_BENCH_JSON", path_.c_str(), 1);
  { JsonReporter reporter("Figure Y"); }
  EXPECT_EQ(ReadFile(path_),
            "{\"figure\":\"Figure Y\",\"bench_scale\":1,\"rows\":[]}\n");
}

TEST_F(JsonReporterTest, EscapesQuotesAndBackslashes) {
  setenv("TERIDS_BENCH_JSON", path_.c_str(), 1);
  {
    JsonReporter reporter("Fig \"Q\"");
    reporter.AddRow().Str("name", "a\\b\"c");
  }
  EXPECT_EQ(ReadFile(path_),
            "{\"figure\":\"Fig \\\"Q\\\"\",\"bench_scale\":1,\"rows\":["
            "{\"name\":\"a\\\\b\\\"c\"}]}\n");
}

TEST_F(JsonReporterTest, EscapesControlCharacters) {
  setenv("TERIDS_BENCH_JSON", path_.c_str(), 1);
  {
    JsonReporter reporter("F");
    reporter.AddRow().Str("name", "a\nb\tc");
  }
  EXPECT_EQ(ReadFile(path_),
            "{\"figure\":\"F\",\"bench_scale\":1,\"rows\":["
            "{\"name\":\"a\\u000ab\\u0009c\"}]}\n");
}

TEST_F(JsonReporterTest, RowReferencesSurviveLaterAddRowCalls) {
  setenv("TERIDS_BENCH_JSON", path_.c_str(), 1);
  {
    JsonReporter reporter("F");
    JsonReporter::Row& first = reporter.AddRow();
    for (int i = 0; i < 100; ++i) {
      reporter.AddRow().Num("i", i);
    }
    first.Num("late", 7);  // must not dangle despite 100 later rows
  }
  EXPECT_NE(ReadFile(path_).find("{\"late\":7}"), std::string::npos);
}

TEST_F(JsonReporterTest, RawSplicesPreRenderedJson) {
  setenv("TERIDS_BENCH_JSON", path_.c_str(), 1);
  {
    JsonReporter reporter("Figure Z");
    reporter.AddRow().Str("dataset", "Bikes").Raw("cost", "{\"er\":1.5}");
  }
  EXPECT_EQ(ReadFile(path_),
            "{\"figure\":\"Figure Z\",\"bench_scale\":1,\"rows\":["
            "{\"dataset\":\"Bikes\",\"cost\":{\"er\":1.5}}]}\n");
}

// ---------------------------------------------------------------------------
// EnvInt: the shared TERIDS_BENCH_* knob parser must reject malformed and
// out-of-range values loudly (stderr) instead of silently reconfiguring a
// benchmark run.
// ---------------------------------------------------------------------------

class EnvIntTest : public ::testing::Test {
 protected:
  static constexpr const char* kKnob = "TERIDS_BENCH_TESTKNOB";
  void TearDown() override {
    unsetenv(kKnob);
    unsetenv("TERIDS_BENCH_REPO_BACKEND");
  }

  /// Runs EnvInt and returns {value, stderr output}.
  std::pair<int, std::string> Parse(
      const char* env, int fallback, int min_value,
      int max_value = std::numeric_limits<int>::max()) {
    setenv(kKnob, env, 1);
    ::testing::internal::CaptureStderr();
    const int v = EnvInt(kKnob, fallback, min_value, max_value);
    return {v, ::testing::internal::GetCapturedStderr()};
  }
};

TEST_F(EnvIntTest, UnsetAndEmptyFallBackSilently) {
  unsetenv(kKnob);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(EnvInt(kKnob, 7, 1), 7);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  const auto [v, err] = Parse("", 7, 1);
  EXPECT_EQ(v, 7);
  EXPECT_EQ(err, "");
}

TEST_F(EnvIntTest, ParsesValidValues) {
  EXPECT_EQ(Parse("8", 1, 1).first, 8);
  EXPECT_EQ(Parse("-3", 0, -10).first, -3);
  EXPECT_EQ(Parse("1", 4, 1).first, 1);  // exactly at the minimum
}

TEST_F(EnvIntTest, RejectsTrailingGarbageWithMessage) {
  const auto [v, err] = Parse("8x", 3, 1);
  EXPECT_EQ(v, 3);
  EXPECT_NE(err.find(kKnob), std::string::npos);
  EXPECT_NE(err.find("not an integer"), std::string::npos) << err;
}

TEST_F(EnvIntTest, RejectsNonNumericWithMessage) {
  const auto [v, err] = Parse("fast", 2, 1);
  EXPECT_EQ(v, 2);
  EXPECT_NE(err.find("not an integer"), std::string::npos) << err;
}

TEST_F(EnvIntTest, RejectsOverflowWithMessage) {
  const auto [v, err] = Parse("99999999999999999999", 5, 1);
  EXPECT_EQ(v, 5);
  EXPECT_NE(err.find("overflows"), std::string::npos) << err;
}

TEST_F(EnvIntTest, RejectsBelowMinimumWithMessage) {
  const auto [v, err] = Parse("0", 4, 1);
  EXPECT_EQ(v, 4);
  EXPECT_NE(err.find("below the minimum"), std::string::npos) << err;
}

TEST_F(EnvIntTest, RejectsAboveMaximumWithMessage) {
  EXPECT_EQ(Parse("16", 0, 0, 16).first, 16);  // exactly at the maximum
  const auto [v, err] = Parse("17", 4, 0, 16);
  EXPECT_EQ(v, 4);
  EXPECT_NE(err.find("above the maximum 16"), std::string::npos) << err;
}

TEST_F(EnvIntTest, RepoBackendKnobParsesAndRejectsLoudly) {
  setenv("TERIDS_BENCH_REPO_BACKEND", "mmap", 1);
  EXPECT_EQ(EnvExecKnobs().repo_backend, RepoBackend::kMmapSnapshot);
  setenv("TERIDS_BENCH_REPO_BACKEND", "memory", 1);
  EXPECT_EQ(EnvExecKnobs().repo_backend, RepoBackend::kInMemory);
  setenv("TERIDS_BENCH_REPO_BACKEND", "rocksdb", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(EnvExecKnobs().repo_backend, RepoBackend::kInMemory);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("not a backend"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// EnvScale: TERIDS_BENCH_SCALE must be wholly a finite number in
// (0, kMaxBenchScale]; anything else falls back to 1 with the same kind of
// one-line message EnvInt prints, instead of silently reconfiguring a run
// (or, for huge values, overflowing the int window BaseParams derives).
// ---------------------------------------------------------------------------

class EnvScaleTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("TERIDS_BENCH_SCALE"); }

  /// Runs EnvScale under `env` and returns {value, stderr output}.
  std::pair<double, std::string> Parse(const char* env) {
    setenv("TERIDS_BENCH_SCALE", env, 1);
    ::testing::internal::CaptureStderr();
    const double v = EnvScale();
    return {v, ::testing::internal::GetCapturedStderr()};
  }

  void ExpectRejected(const char* env, const char* reason) {
    const auto [v, err] = Parse(env);
    EXPECT_EQ(v, 1.0) << env;
    EXPECT_NE(err.find("TERIDS_BENCH_SCALE"), std::string::npos) << err;
    EXPECT_NE(err.find(reason), std::string::npos) << err;
    EXPECT_NE(err.find("using default 1"), std::string::npos) << err;
    EXPECT_EQ(err.find('\n'), err.size() - 1) << "one line: " << err;
  }
};

TEST_F(EnvScaleTest, UnsetAndEmptyFallBackSilently) {
  unsetenv("TERIDS_BENCH_SCALE");
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(EnvScale(), 1.0);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  const auto [v, err] = Parse("");
  EXPECT_EQ(v, 1.0);
  EXPECT_EQ(err, "");
}

TEST_F(EnvScaleTest, ParsesValidValues) {
  for (const char* env : {"0.05", "2", "1e-3"}) {
    const auto [v, err] = Parse(env);
    EXPECT_DOUBLE_EQ(v, std::strtod(env, nullptr)) << env;
    EXPECT_EQ(err, "") << env;
  }
  EXPECT_EQ(Parse("10000").first, kMaxBenchScale);  // exactly at the ceiling
}

TEST_F(EnvScaleTest, RejectsNonNumericAndTrailingGarbage) {
  ExpectRejected("abc", "not a number");
  ExpectRejected("0.2x", "not a number");
}

TEST_F(EnvScaleTest, RejectsNonFiniteAndOutOfRange) {
  ExpectRejected("inf", "not a finite value in (0, 10000]");
  ExpectRejected("nan", "not a finite value in (0, 10000]");
  ExpectRejected("1e10", "not a finite value in (0, 10000]");
  ExpectRejected("-1", "not a finite value in (0, 10000]");
  ExpectRejected("0", "not a finite value in (0, 10000]");
  // A huge scale must never reach BaseParams' static_cast<int>(200 * scale)
  // (undefined behaviour): rejected, it leaves the default window.
  setenv("TERIDS_BENCH_SCALE", "1e10", 1);
  ::testing::internal::CaptureStderr();
  const ExperimentParams params = BaseParams("Citations");
  ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(params.w, 200);
  EXPECT_EQ(params.max_arrivals, 800);
}

// ---------------------------------------------------------------------------
// BenchScale / BenchKnobs: every TERIDS_BENCH_* variable is parsed once per
// process, so a rejected value warns once however many BaseParams,
// PrintHeader and JsonReporter calls read it. The calls run in a fresh
// child process ("threadsafe" death-test style re-executes this binary), in
// which nothing has parsed the environment yet.
// ---------------------------------------------------------------------------

TEST(BenchEnvTest, RejectedValueWarnsOncePerProcess) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  setenv("TERIDS_BENCH_SCALE", "abc", 1);
  setenv("TERIDS_BENCH_BATCH", "8x", 1);
  const std::string json = ::testing::TempDir() + "/bench_env_test.json";
  setenv("TERIDS_BENCH_JSON", json.c_str(), 1);
  EXPECT_EXIT(
      {
        ::testing::internal::CaptureStderr();
        for (int i = 0; i < 3; ++i) {
          const ExperimentParams params = BaseParams("Bikes");
          PrintHeader("Figure Z", "env", params);
          JsonReporter reporter("Figure Z");
          reporter.AddKnobRow(BenchKnobs());
        }
        const std::string err = ::testing::internal::GetCapturedStderr();
        std::fputs(err.c_str(), stderr);
        std::exit(static_cast<int>(std::count(err.begin(), err.end(), '\n')));
      },
      ::testing::ExitedWithCode(2),
      "TERIDS_BENCH_SCALE: 'abc' is not a number[^\n]*\n"
      "TERIDS_BENCH_BATCH: '8x' is not an integer");
  std::remove(json.c_str());
  unsetenv("TERIDS_BENCH_SCALE");
  unsetenv("TERIDS_BENCH_BATCH");
  unsetenv("TERIDS_BENCH_JSON");
}

}  // namespace
}  // namespace bench
}  // namespace terids
