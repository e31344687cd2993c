#ifndef TERIDS_EVAL_LATENCY_HISTOGRAM_H_
#define TERIDS_EVAL_LATENCY_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace terids {

/// The four phases of one arrival (DESIGN.md §6). They key LatencyStats'
/// phase histograms, and terbench names its exec.* rows by them.
enum class ExecPhase {
  /// Imputation: CDD selection and the determinant join.
  kIngest = 0,
  kCandidate = 1,  // window scan
  kRefine = 2,     // the Theorem 4.1-4.4 cascade / exact refinement
  kMaintain = 3,   // window push, eviction cascade
};
inline constexpr int kNumExecPhases = 4;

/// Short lowercase phase tag for table and JSON output ("ingest", ...).
const char* ExecPhaseName(ExecPhase phase);

/// A log-bucketed latency histogram: fixed memory, O(1) record, mergeable,
/// and percentile queries with within-bucket interpolation.
///
/// Buckets cover [1ns, ~2^63 ns) with `kSubBuckets` linear sub-buckets per
/// power of two, so the relative bucket width — and therefore the worst-case
/// percentile error — is 1/kSubBuckets (6.25%). Durations below 1ns clamp
/// into the first bucket.
class LatencyHistogram {
 public:
  /// Linear sub-buckets per octave; 16 gives <= 6.25% relative error.
  static constexpr int kSubBucketBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  /// 64 - kSubBucketBits octaves above the exact range plus the exact
  /// [0, kSubBuckets) range itself.
  static constexpr int kNumBuckets = (64 - kSubBucketBits + 1) * kSubBuckets;

  LatencyHistogram();

  /// Folds one duration (in seconds) into the histogram.
  void Record(double seconds) { RecordNanos(ToNanos(seconds)); }
  /// Same, in integer nanoseconds.
  void RecordNanos(uint64_t nanos);

  /// Adds every count of `other` into this histogram. Merge is commutative
  /// and associative, so histograms can be combined in any order.
  void Merge(const LatencyHistogram& other);

  /// The value (in seconds) at quantile `q` in [0, 1]: the bucket holding
  /// the rank-ceil(q*count) sample, linearly interpolated by rank position
  /// within the bucket. 0 when the histogram is empty.
  double Percentile(double q) const;

  uint64_t count() const { return count_; }
  /// Exact (unbucketed) extremes and mean, in seconds; 0 when empty.
  double max_seconds() const { return static_cast<double>(max_nanos_) * 1e-9; }
  double mean_seconds() const;

  void Reset();

  /// Flat JSON object with count, mean/max, and the three SLO percentiles:
  /// {"count":N,"p50_ms":...,"p99_ms":...,"p999_ms":...,"mean_ms":...,
  ///  "max_ms":...}.
  std::string ToJson() const;

  /// Bucket index of a duration and the [lo, hi) nanosecond range of a
  /// bucket — exposed so tests can pin the boundary math.
  static int BucketIndex(uint64_t nanos);
  static uint64_t BucketLowerBound(int bucket);
  static uint64_t BucketUpperBound(int bucket);

  static uint64_t ToNanos(double seconds) {
    if (seconds <= 0.0) {
      return 0;
    }
    return static_cast<uint64_t>(seconds * 1e9);
  }

 private:
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t sum_nanos_ = 0;
  uint64_t max_nanos_ = 0;
};

/// One histogram per arrival phase plus the end-to-end per-arrival
/// latency — the unit CostBreakdown-style accounting aggregates and
/// JsonReporter emits (DESIGN.md §10). Plain value type; merge combines the
/// component histograms pairwise.
struct LatencyStats {
  LatencyHistogram phase[kNumExecPhases];
  LatencyHistogram end_to_end;

  LatencyHistogram& of(ExecPhase p) { return phase[static_cast<int>(p)]; }
  const LatencyHistogram& of(ExecPhase p) const {
    return phase[static_cast<int>(p)];
  }

  void Merge(const LatencyStats& other);
  void Reset();

  /// JSON object keyed by phase name plus "end_to_end", each value a
  /// LatencyHistogram::ToJson object. Phases with zero samples are included
  /// (count 0) so the artifact schema is stable across configurations.
  std::string ToJson() const;
};

}  // namespace terids

#endif  // TERIDS_EVAL_LATENCY_HISTOGRAM_H_
