// Scheduler unit tests: exactly-once task execution, concurrent fork-join
// from multiple threads, detached-chain ordering, shutdown/drain with no
// lost work items, and exception-safe unwind of a caller-thrown task (the
// contract the async ProcessStream consumer relies on).

#include "exec/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
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
  // The ingest-chain shape: a detached item itself fans out. Must not
  // deadlock even at one worker (the inner caller self-drains its job).
  Scheduler sched(1);
  std::atomic<int> inner_runs{0};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  sched.Submit(ExecPhase::kIngest, [&] {
    sched.ParallelFor(ExecPhase::kMaintain, 32,
                      [&](int64_t) { inner_runs.fetch_add(1); });
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  EXPECT_EQ(inner_runs.load(), 32);
}

TEST(SchedulerTest, SubmittedChainRunsInOrder) {
  // The ingest pattern: each item resubmits the next, so chain links must
  // observe strictly increasing sequence numbers.
  Scheduler sched(4);
  constexpr int kLinks = 100;
  std::vector<int> order;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::function<void(int)> link = [&](int step) {
    {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(step);
    }
    if (step + 1 < kLinks) {
      sched.Submit(ExecPhase::kIngest, [&link, step] { link(step + 1); });
    } else {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_one();
    }
  };
  sched.Submit(ExecPhase::kIngest, [&link] { link(0); });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  ASSERT_EQ(order.size(), static_cast<size_t>(kLinks));
  for (int i = 0; i < kLinks; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SchedulerTest, DrainWaitsForAllDetachedItems) {
  Scheduler sched(2);
  std::atomic<int> ran{0};
  constexpr int kItems = 200;
  for (int i = 0; i < kItems; ++i) {
    sched.Submit(ExecPhase::kMaintain, [&ran] { ran.fetch_add(1); });
  }
  sched.Drain();
  EXPECT_EQ(ran.load(), kItems);
}

TEST(SchedulerTest, DestructorRunsEveryPendingItem) {
  // Shutdown ordering: nothing submitted before destruction may be lost —
  // the workers drain the queue fully before exiting.
  std::atomic<int> ran{0};
  constexpr int kItems = 500;
  {
    Scheduler sched(3);
    for (int i = 0; i < kItems; ++i) {
      sched.Submit(ExecPhase::kIngest, [&ran] { ran.fetch_add(1); });
    }
    // No Drain: the destructor itself must guarantee completion.
  }
  EXPECT_EQ(ran.load(), kItems);
}

TEST(SchedulerTest, CallerExceptionUnwindsAndSchedulerStaysUsable) {
  // Exception-safe unwind, mirroring the async consumer contract: a task
  // that throws on the calling thread must propagate out of ParallelFor
  // after the in-flight tasks settle, and the scheduler must remain fully
  // functional for subsequent jobs.
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
  for (int i = 0; i < 10; ++i) {
    sched.Submit(ExecPhase::kIngest, [] {});
  }
  sched.ParallelFor(ExecPhase::kMaintain, 20, [](int64_t) {});
  LatencyStats stats = sched.ConsumeLatencies();
  EXPECT_EQ(stats.of(ExecPhase::kCandidate).count(), 40u);
  EXPECT_EQ(stats.of(ExecPhase::kRefine).count(), 30u);
  EXPECT_EQ(stats.of(ExecPhase::kIngest).count(), 10u);
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

TEST(SchedulerTest, SubmitRacesDrainWithoutLosingItems) {
  // Multi-producer submission racing repeated Drain calls — the surface the
  // annotated Mutex migration must keep TSan-clean: every submitted item
  // runs exactly once, and a Drain that observes quiescence really did see
  // all prior effects (its queue mutex is the happens-before edge). All
  // producers join before the Scheduler is destroyed: submitting
  // concurrently with destruction is outside the contract.
  constexpr int kProducers = 3;
  constexpr int kItemsPerProducer = 200;
  std::atomic<int> ran{0};
  {
    Scheduler sched(2);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < kItemsPerProducer; ++i) {
          sched.Submit(ExecPhase::kMaintain, [&] { ran.fetch_add(1); });
          if ((i & 31) == 0) {
            std::this_thread::yield();
          }
        }
      });
    }
    // Drain repeatedly while producers are still submitting; each call must
    // quiesce whatever had been enqueued at that instant and tolerate new
    // submissions immediately after.
    for (int r = 0; r < 20; ++r) {
      sched.Drain();
    }
    for (auto& t : producers) {
      t.join();
    }
    sched.Drain();
    EXPECT_EQ(ran.load(), kProducers * kItemsPerProducer);
  }
  // Destructor drained: nothing ran after the final count.
  EXPECT_EQ(ran.load(), kProducers * kItemsPerProducer);
}

TEST(SchedulerTest, SubmitRacesParallelForAcrossPhases) {
  // A detached kIngest-style chain submitting from a worker thread while
  // the caller issues kRefine fork-joins — the unified pipeline's steady
  // state. Exercises the one sanctioned lock nesting (mu_ -> ext_mu_ in
  // ConsumeLatencies) while both locks are contended.
  Scheduler sched(2);
  std::atomic<int> chain_hops{0};
  std::atomic<int> refined{0};
  constexpr int kHops = 50;
  // Self-resubmitting chain, like the async ingest stage.
  std::function<void()> hop = [&] {
    if (chain_hops.fetch_add(1) + 1 < kHops) {
      sched.Submit(ExecPhase::kIngest, hop);
    }
  };
  sched.Submit(ExecPhase::kIngest, hop);
  for (int r = 0; r < 10; ++r) {
    sched.ParallelFor(ExecPhase::kRefine, 64,
                      [&](int64_t) { refined.fetch_add(1); });
    LatencyStats stats = sched.ConsumeLatencies();
    EXPECT_LE(stats.of(ExecPhase::kIngest).count(),
              static_cast<uint64_t>(kHops));
  }
  sched.Drain();
  EXPECT_EQ(chain_hops.load(), kHops);
  EXPECT_EQ(refined.load(), 640);
}

}  // namespace
}  // namespace terids
