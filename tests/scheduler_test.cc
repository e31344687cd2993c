// Scheduler unit tests: exactly-once task execution, concurrent and nested
// fork-join, exception-safe unwind of a caller-thrown task, and the
// per-phase service-time histograms.

#include "exec/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace terids {
namespace {

TEST(SchedulerTest, ParallelForRunsEveryTaskExactlyOnce) {
  Scheduler sched(4);
  constexpr int64_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  sched.ParallelFor(ExecPhase::kRefine, kTasks,
                    [&](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(SchedulerTest, ParallelForHandlesEdgeCounts) {
  Scheduler sched(2);
  std::atomic<int> ran{0};
  sched.ParallelFor(ExecPhase::kCandidate, 0,
                    [&](int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
  sched.ParallelFor(ExecPhase::kCandidate, 1,
                    [&](int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1);
}

TEST(SchedulerTest, SingleWorkerStillCompletesLargeFanOut) {
  // The caller participates, so even one worker plus the caller must finish
  // any job — and the caller alone must finish it if the worker is slow.
  Scheduler sched(1);
  std::atomic<int64_t> sum{0};
  sched.ParallelFor(ExecPhase::kMaintain, 200,
                    [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 200 * 199 / 2);
}

TEST(SchedulerTest, ConcurrentParallelForFromManyThreads) {
  // One scheduler serves every fan-out: N threads each issue fork-joins
  // against it, repeatedly, and every task of every job must run exactly
  // once with each barrier honored.
  Scheduler sched(3);
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  static constexpr int64_t kTasks = 64;
  std::atomic<int64_t> total{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sched, &total] {
      for (int r = 0; r < kRounds; ++r) {
        std::atomic<int64_t> local{0};
        sched.ParallelFor(ExecPhase::kRefine, kTasks,
                          [&](int64_t) { local.fetch_add(1); });
        // Barrier: every task of *this* job visible before the call returns.
        ASSERT_EQ(local.load(), kTasks);
        total.fetch_add(local.load());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(total.load(), static_cast<int64_t>(kThreads) * kRounds * kTasks);
}

TEST(SchedulerTest, NestedParallelForInsideWorkItem) {
  // A task that itself fans out must not deadlock even at one worker: the
  // inner caller self-drains its own job.
  Scheduler sched(1);
  std::atomic<int> inner_runs{0};
  sched.ParallelFor(ExecPhase::kRefine, 4, [&](int64_t) {
    sched.ParallelFor(ExecPhase::kMaintain, 32,
                      [&](int64_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 4 * 32);
}

TEST(SchedulerTest, CallerExceptionUnwindsAndSchedulerStaysUsable) {
  // Exception-safe unwind: a task that throws on the calling thread must
  // propagate out of ParallelFor after the in-flight tasks settle, and the
  // scheduler must remain fully functional for subsequent jobs.
  Scheduler sched(2);
  std::atomic<int> before_throw{0};
  bool threw = false;
  try {
    // One task, so it runs inline on the caller — the only thread allowed
    // to throw.
    sched.ParallelFor(ExecPhase::kRefine, 1, [&](int64_t) {
      before_throw.fetch_add(1);
      throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(before_throw.load(), 1);

  // Scheduler survives: a fresh fan-out still runs every task.
  std::atomic<int> after{0};
  sched.ParallelFor(ExecPhase::kRefine, 50, [&](int64_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 50);
  sched.Drain();
}

TEST(SchedulerTest, ConsumeLatenciesCountsEveryTask) {
  Scheduler sched(2);
  sched.ParallelFor(ExecPhase::kCandidate, 40, [](int64_t) {});
  sched.ParallelFor(ExecPhase::kRefine, 30, [](int64_t) {});
  sched.ParallelFor(ExecPhase::kMaintain, 20, [](int64_t) {});
  LatencyStats stats = sched.ConsumeLatencies();
  EXPECT_EQ(stats.of(ExecPhase::kCandidate).count(), 40u);
  EXPECT_EQ(stats.of(ExecPhase::kRefine).count(), 30u);
  EXPECT_EQ(stats.of(ExecPhase::kIngest).count(), 0u);
  EXPECT_EQ(stats.of(ExecPhase::kMaintain).count(), 20u);
  // Arrival end-to-end latency is the pipeline's to measure, not ours.
  EXPECT_EQ(stats.end_to_end.count(), 0u);

  // Consume clears: a second call reports only work since the first.
  LatencyStats again = sched.ConsumeLatencies();
  EXPECT_EQ(again.of(ExecPhase::kCandidate).count(), 0u);
  sched.ParallelFor(ExecPhase::kCandidate, 5, [](int64_t) {});
  EXPECT_EQ(sched.ConsumeLatencies().of(ExecPhase::kCandidate).count(), 5u);
}

TEST(SchedulerTest, RingOverflowFoldsWithoutLosingSamples) {
  // More tasks than the 1024-sample ring capacity: counts must still be
  // exact because full rings fold into the worker-local histograms.
  Scheduler sched(2);
  constexpr int64_t kTasks = 5000;
  sched.ParallelFor(ExecPhase::kRefine, kTasks, [](int64_t) {});
  EXPECT_EQ(sched.ConsumeLatencies().of(ExecPhase::kRefine).count(),
            static_cast<uint64_t>(kTasks));
}

TEST(SchedulerTest, ConcurrencyCountsCallerParticipation) {
  Scheduler sched(3);
  EXPECT_EQ(sched.num_workers(), 3);
  EXPECT_EQ(sched.concurrency(), 4);
}

}  // namespace
}  // namespace terids
