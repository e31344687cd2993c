#ifndef TERBENCH_TRACING_H_
#define TERBENCH_TRACING_H_

// Spans the benchmark records around calls into the engine's public
// interfaces, without any instrumentation inside the engine: a RepoStorage
// decorator that counts and times every repository accessor by group, and
// a StreamDriver subclass that times NextBatch and stamps when each record
// was handed out (the origin of the end-to-end arrival latency).

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "repo/repo_storage.h"
#include "stream/stream_driver.h"

namespace terbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NanosSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Repository accessor groups the decorator accounts separately.
enum class RepoGroup {
  kReadDomain,   // domain_size, value_tokens/text/frequency, FindValue
  kReadSample,   // num_samples, sample, sample_value_id
  kReadPivot,    // has_pivots, num_pivots, pivot_tokens, pivot_distance
  kReadRange,    // AppendValuesInCoordRange
  kWriteValue,   // RegisterValue, BumpFrequency
  kWriteSample,  // AppendSample
};
inline constexpr int kNumRepoGroups = 6;
inline const char* RepoGroupName(RepoGroup g) {
  static const char* const kNames[kNumRepoGroups] = {
      "domain", "sample", "pivot", "range", "value", "sample"};
  return kNames[static_cast<int>(g)];
}
inline bool IsRepoWrite(RepoGroup g) {
  return static_cast<int>(g) >= static_cast<int>(RepoGroup::kWriteValue);
}

/// Per-group call counts and nanoseconds. Atomic because the async
/// workload reads the repository from scheduler workers concurrently.
struct RepoCounters {
  std::array<std::atomic<uint64_t>, kNumRepoGroups> calls{};
  std::array<std::atomic<uint64_t>, kNumRepoGroups> nanos{};

  struct Snapshot {
    std::array<uint64_t, kNumRepoGroups> calls{};
    std::array<uint64_t, kNumRepoGroups> nanos{};
    Snapshot Minus(const Snapshot& base) const {
      Snapshot d;
      for (int g = 0; g < kNumRepoGroups; ++g) {
        d.calls[g] = calls[g] - base.calls[g];
        d.nanos[g] = nanos[g] - base.nanos[g];
      }
      return d;
    }
  };
  Snapshot Take() const {
    Snapshot s;
    for (int g = 0; g < kNumRepoGroups; ++g) {
      s.calls[g] = calls[g].load(std::memory_order_relaxed);
      s.nanos[g] = nanos[g].load(std::memory_order_relaxed);
    }
    return s;
  }
};

/// Runs `fn`, charging one call and its duration to group `g`.
template <typename Fn>
decltype(auto) TimedCall(RepoCounters* c, RepoGroup g, Fn&& fn) {
  struct Span {
    RepoCounters* c;
    int g;
    Clock::time_point t0 = Clock::now();
    ~Span() {
      c->calls[g].fetch_add(1, std::memory_order_relaxed);
      c->nanos[g].fetch_add(NanosSince(t0), std::memory_order_relaxed);
    }
  } span{c, static_cast<int>(g)};
  return fn();
}

/// Times every accessor of the wrapped storage into `counters` (which must
/// outlive the decorator); AttachPivots, a set-up-only call, passes through.
class TimingStorage final : public terids::RepoStorage {
 public:
  TimingStorage(std::unique_ptr<terids::RepoStorage> inner,
                RepoCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  const char* name() const override { return inner_->name(); }

  size_t domain_size(int attr) const override {
    return TimedCall(counters_, RepoGroup::kReadDomain, [&] { return inner_->domain_size(attr); });
  }
  const terids::TokenSet& value_tokens(int attr, terids::ValueId id) const override {
    return TimedCall(counters_, RepoGroup::kReadDomain,
                [&]() -> const terids::TokenSet& { return inner_->value_tokens(attr, id); });
  }
  std::string_view value_text(int attr, terids::ValueId id) const override {
    return TimedCall(counters_, RepoGroup::kReadDomain, [&] { return inner_->value_text(attr, id); });
  }
  int value_frequency(int attr, terids::ValueId id) const override {
    return TimedCall(counters_, RepoGroup::kReadDomain, [&] { return inner_->value_frequency(attr, id); });
  }
  terids::ValueId FindValue(int attr, const terids::TokenSet& tokens) const override {
    return TimedCall(counters_, RepoGroup::kReadDomain, [&] { return inner_->FindValue(attr, tokens); });
  }
  size_t num_samples() const override {
    return TimedCall(counters_, RepoGroup::kReadSample, [&] { return inner_->num_samples(); });
  }
  const terids::Record& sample(size_t i) const override {
    return TimedCall(counters_, RepoGroup::kReadSample,
                [&]() -> const terids::Record& { return inner_->sample(i); });
  }
  terids::ValueId sample_value_id(size_t i, int attr) const override {
    return TimedCall(counters_, RepoGroup::kReadSample, [&] { return inner_->sample_value_id(i, attr); });
  }
  bool has_pivots() const override {
    return TimedCall(counters_, RepoGroup::kReadPivot, [&] { return inner_->has_pivots(); });
  }
  int num_pivots(int attr) const override {
    return TimedCall(counters_, RepoGroup::kReadPivot, [&] { return inner_->num_pivots(attr); });
  }
  const terids::TokenSet& pivot_tokens(int attr, int pivot_idx) const override {
    return TimedCall(counters_, RepoGroup::kReadPivot, [&]() -> const terids::TokenSet& {
      return inner_->pivot_tokens(attr, pivot_idx);
    });
  }
  double pivot_distance(int attr, int pivot_idx, terids::ValueId vid) const override {
    return TimedCall(counters_, RepoGroup::kReadPivot,
                [&] { return inner_->pivot_distance(attr, pivot_idx, vid); });
  }
  void AppendValuesInCoordRange(int attr, const terids::Interval& interval,
                                std::vector<terids::ValueId>* out) const override {
    TimedCall(counters_, RepoGroup::kReadRange, [&] {
      inner_->AppendValuesInCoordRange(attr, interval, out);
      return 0;
    });
  }
  terids::ValueId RegisterValue(int attr, const terids::TokenSet& tokens,
                                const std::string& text) override {
    return TimedCall(counters_, RepoGroup::kWriteValue,
                [&] { return inner_->RegisterValue(attr, tokens, text); });
  }
  void BumpFrequency(int attr, terids::ValueId id) override {
    TimedCall(counters_, RepoGroup::kWriteValue, [&] {
      inner_->BumpFrequency(attr, id);
      return 0;
    });
  }
  void AppendSample(const terids::Record& record,
                    std::vector<terids::ValueId> vids) override {
    TimedCall(counters_, RepoGroup::kWriteSample, [&] {
      inner_->AppendSample(record, std::move(vids));
      return 0;
    });
  }
  bool SupportsAttachPivots() const override { return inner_->SupportsAttachPivots(); }
  void AttachPivots(std::vector<terids::AttributePivots> pivots) override {
    inner_->AttachPivots(std::move(pivots));
  }

 private:
  std::unique_ptr<terids::RepoStorage> inner_;
  RepoCounters* counters_;
};

/// The workload's record source. Hands out exactly what StreamDriver does
/// and additionally records, per global timestamp, when the record left
/// NextBatch and which rid/stream it carried, plus the time spent inside
/// NextBatch itself. The vectors are sized up front so they never move.
class TimingDriver final : public terids::StreamDriver {
 public:
  explicit TimingDriver(std::vector<std::vector<terids::Record>> sources)
      : StreamDriver(std::move(sources)),
        handed_out_(total()),
        rid_(total(), -1),
        stream_(total(), -1) {}

  std::vector<terids::Record> NextBatch(size_t max_records) override {
    const Clock::time_point t0 = Clock::now();
    std::vector<terids::Record> batch = StreamDriver::NextBatch(max_records);
    const Clock::time_point t1 = Clock::now();
    for (const terids::Record& r : batch) {
      const size_t ts = static_cast<size_t>(r.timestamp);
      handed_out_[ts] = t1;
      rid_[ts] = r.rid;
      stream_[ts] = r.stream_id;
    }
    nanos_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    return batch;
  }

  Clock::time_point handed_out(int64_t ts) const { return handed_out_[ts]; }
  int64_t rid(int64_t ts) const { return rid_[ts]; }
  int stream(int64_t ts) const { return stream_[ts]; }
  uint64_t nanos() const { return nanos_; }

 private:
  std::vector<Clock::time_point> handed_out_;
  std::vector<int64_t> rid_;
  std::vector<int> stream_;
  uint64_t nanos_ = 0;
};

}  // namespace terbench

#endif  // TERBENCH_TRACING_H_
