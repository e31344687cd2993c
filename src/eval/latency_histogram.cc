#include "eval/latency_histogram.h"

#include <algorithm>
#include <cstdio>

#include "util/status.h"

namespace terids {

const char* ExecPhaseName(ExecPhase phase) {
  switch (phase) {
    case ExecPhase::kIngest:
      return "ingest";
    case ExecPhase::kCandidate:
      return "candidate";
    case ExecPhase::kRefine:
      return "refine";
    case ExecPhase::kMaintain:
      return "maintain";
  }
  return "unknown";
}

LatencyHistogram::LatencyHistogram() : counts_(kNumBuckets, 0) {}

int LatencyHistogram::BucketIndex(uint64_t nanos) {
  if (nanos < static_cast<uint64_t>(kSubBuckets)) {
    // Sub-kSubBuckets durations get one exact bucket each.
    return static_cast<int>(nanos);
  }
  // Highest set bit e >= kSubBucketBits; the kSubBucketBits bits below it
  // pick the linear sub-bucket within the octave [2^e, 2^(e+1)).
  int e = 63;
  while ((nanos >> e) == 0) {
    --e;
  }
  const uint64_t sub = (nanos >> (e - kSubBucketBits)) &
                       (static_cast<uint64_t>(kSubBuckets) - 1);
  return ((e - kSubBucketBits + 1) << kSubBucketBits) + static_cast<int>(sub);
}

uint64_t LatencyHistogram::BucketLowerBound(int bucket) {
  TERIDS_CHECK(bucket >= 0 && bucket < kNumBuckets);
  if (bucket < kSubBuckets) {
    return static_cast<uint64_t>(bucket);
  }
  const int e = (bucket >> kSubBucketBits) + kSubBucketBits - 1;
  const uint64_t sub = static_cast<uint64_t>(bucket & (kSubBuckets - 1));
  return (static_cast<uint64_t>(1) << e) + (sub << (e - kSubBucketBits));
}

uint64_t LatencyHistogram::BucketUpperBound(int bucket) {
  TERIDS_CHECK(bucket >= 0 && bucket < kNumBuckets);
  if (bucket < kSubBuckets) {
    return static_cast<uint64_t>(bucket) + 1;
  }
  const int e = (bucket >> kSubBucketBits) + kSubBucketBits - 1;
  return BucketLowerBound(bucket) +
         (static_cast<uint64_t>(1) << (e - kSubBucketBits));
}

void LatencyHistogram::RecordNanos(uint64_t nanos) {
  ++counts_[BucketIndex(nanos)];
  ++count_;
  sum_nanos_ += nanos;
  max_nanos_ = std::max(max_nanos_, nanos);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_nanos_ += other.sum_nanos_;
  max_nanos_ = std::max(max_nanos_, other.max_nanos_);
}

double LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  // The rank-r element of the sorted sample (0-based), the same definition a
  // sorted-vector oracle uses: r = ceil(q * count) - 1, clamped to [0, n).
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
  if (static_cast<double>(rank) < q * static_cast<double>(count_)) {
    ++rank;  // ceil for non-integer products
  }
  rank = rank > 0 ? rank - 1 : 0;
  uint64_t cum = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    if (counts_[b] == 0) {
      continue;
    }
    cum += counts_[b];
    if (cum > rank) {
      // Interpolate by rank position inside the bucket: samples are assumed
      // uniform over [lo, hi), so the k-th of n bucket samples sits at
      // lo + (k + 0.5)/n * width.
      const uint64_t pos = rank - (cum - counts_[b]);
      const double lo = static_cast<double>(BucketLowerBound(b));
      const double width = static_cast<double>(BucketUpperBound(b)) - lo;
      const double fraction = (static_cast<double>(pos) + 0.5) /
                              static_cast<double>(counts_[b]);
      return (lo + fraction * width) * 1e-9;
    }
  }
  return static_cast<double>(max_nanos_) * 1e-9;  // unreachable
}

double LatencyHistogram::mean_seconds() const {
  if (count_ == 0) {
    return 0.0;
  }
  return static_cast<double>(sum_nanos_) /
         static_cast<double>(count_) * 1e-9;
}

void LatencyHistogram::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_nanos_ = 0;
  max_nanos_ = 0;
}

std::string LatencyHistogram::ToJson() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"count\":%llu,\"p50_ms\":%.6g,\"p99_ms\":%.6g,"
                "\"p999_ms\":%.6g,\"mean_ms\":%.6g,\"max_ms\":%.6g}",
                static_cast<unsigned long long>(count_),
                1e3 * Percentile(0.50), 1e3 * Percentile(0.99),
                1e3 * Percentile(0.999), 1e3 * mean_seconds(),
                1e3 * max_seconds());
  return std::string(buf);
}

void LatencyStats::Merge(const LatencyStats& other) {
  for (int p = 0; p < kNumExecPhases; ++p) {
    phase[p].Merge(other.phase[p]);
  }
  end_to_end.Merge(other.end_to_end);
}

void LatencyStats::Reset() {
  for (int p = 0; p < kNumExecPhases; ++p) {
    phase[p].Reset();
  }
  end_to_end.Reset();
}

std::string LatencyStats::ToJson() const {
  std::string out = "{";
  for (int p = 0; p < kNumExecPhases; ++p) {
    out += "\"";
    out += ExecPhaseName(static_cast<ExecPhase>(p));
    out += "\":";
    out += phase[p].ToJson();
    out += ",";
  }
  out += "\"end_to_end\":";
  out += end_to_end.ToJson();
  out += "}";
  return out;
}

}  // namespace terids
