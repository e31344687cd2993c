#ifndef TERBENCH_BENCH_UTIL_H_
#define TERBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "er/match_set.h"

namespace terbench {

/// The VmHWM (peak resident set) of a /proc/<pid>/status text, in KiB; -1
/// when the field is missing or malformed.
long long ParseVmHwmKb(const std::string& status_text);

/// Peak resident memory of this process in MiB (VmHWM), or -1.
double PeakRssMb();

/// Order-sensitive digest of an operator's output stream: every emitted
/// arrival (its timestamp) and each match it added (rids and the exact
/// probability bits), folded with FNV-1a. Two runs emit the same outcomes
/// in the same order iff their digests agree (up to hash collisions).
class MatchDigest {
 public:
  void AddArrival(int64_t timestamp, const std::vector<terids::MatchPair>& matches);
  uint64_t value() const { return h_; }
  size_t arrivals() const { return arrivals_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
  size_t arrivals_ = 0;
};

/// How this binary was compiled; the benchmark refuses to report from an
/// unoptimized or instrumented build.
struct BuildInfo {
  std::string build_type;
  std::string compiler;
  bool debug_asserts = false;  // NDEBUG not defined
  bool sanitized = false;      // ASan / TSan / UBSan instrumented
  bool ReportableTiming() const {
    return !debug_asserts && !sanitized && build_type != "Debug";
  }
};
BuildInfo CurrentBuild();

/// The "model name" line of a /proc/cpuinfo text, or "unknown".
std::string ParseCpuModel(const std::string& cpuinfo_text);

/// Whole file as a string ("" when unreadable).
std::string ReadFile(const std::string& path);

/// Median of a copy of `values` (0 for an empty input).
double Median(std::vector<double> values);

/// A fixed unit of CPU work that gauges how fast the host runs at the
/// moment it runs: hash-table probes, sorts, sorted-list merges, a
/// dependent random walk and an integer hash chain, all within about 1 MiB
/// and with no allocation. On a shared host every kind of work, this kernel
/// included, slows by a common factor (up to 2x, for minutes at a time), so
/// program times measured beside the kernel's median time can be scaled to
/// one host speed. The working set is cache-sized on purpose: a kernel that
/// walked 32 MiB also followed swings in memory latency that the workloads
/// did not share. The kernel is the benchmark's own code: no change to the
/// engine changes the work it does.
class HostReference {
 public:
  HostReference();
  /// Runs the kernel once; returns its wall time in seconds.
  double RunOnce();
  /// Folds everything the kernel computed, so the work cannot be optimised
  /// away; equal after the same number of runs.
  uint64_t checksum() const { return checksum_; }

 private:
  std::unordered_map<uint64_t, uint32_t> table_;
  std::vector<uint64_t> probes_;
  std::vector<uint32_t> unsorted_, scratch_;
  std::vector<uint32_t> list_a_, list_b_;
  std::vector<uint32_t> walk_;  // 256 KiB
  uint64_t checksum_ = 0;
};

}  // namespace terbench

#endif  // TERBENCH_BENCH_UTIL_H_
