// terids::Mutex / MutexLock / CondVar and the Debug lock-rank checker
// (DESIGN.md §12): in-order nested acquisition passes, out-of-order and
// re-entrant acquisition abort with a "lock-rank violation" report, and the
// CondVar wait/reacquire path is exempt from the order re-check. The death
// expectations only exist in Debug builds — in Release the bookkeeping is
// compiled out (kLockRankChecksEnabled) and those tests skip.

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "util/mutex.h"

namespace terids {
namespace {

TEST(MutexTest, InOrderNestedAcquisitionPasses) {
  // The sanctioned direction: low rank outside, high rank inside — the
  // same shape as Scheduler::ConsumeLatencies (kScheduler -> kLatencyRing).
  Mutex low(lock_rank::kScheduler);
  Mutex high(lock_rank::kLatencyRing);
  {
    MutexLock l1(&low);
    MutexLock l2(&high);
    low.AssertHeld();
    high.AssertHeld();
  }
  // Fully released: the same chain must be reacquirable.
  {
    MutexLock l1(&low);
    MutexLock l2(&high);
  }
}

TEST(MutexTest, UnrankedMutexesAreExemptFromTheOrderCheck) {
  // Unranked under ranked and ranked under unranked both pass; only
  // ranked-vs-ranked pairs are ordered. Each direction uses fresh
  // heap-allocated mutex objects: locking the *same* pair both ways round
  // would be a genuine lock-order inversion (TSan's deadlock detector
  // rightly reports it — and tracks stack objects by address across
  // scopes, since std::mutex never announces destruction), and the
  // unranked exemption exists for locks that never form cycles.
  {
    auto ranked = std::make_unique<Mutex>(lock_rank::kScheduler);
    auto unranked = std::make_unique<Mutex>();  // lock_rank::kUnranked
    MutexLock l1(ranked.get());
    MutexLock l2(unranked.get());
  }
  {
    auto ranked = std::make_unique<Mutex>(lock_rank::kScheduler);
    auto unranked = std::make_unique<Mutex>();
    MutexLock l1(unranked.get());
    MutexLock l2(ranked.get());
  }
}

TEST(MutexTest, CondVarWaitReleasesAndReacquiresWithoutOrderViolation) {
  Mutex mu(lock_rank::kScheduler);
  CondVar cv;
  bool ready = false;
  std::thread signaller([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(&mu);
    while (!ready) {
      cv.Wait(&mu);
    }
    // The reacquisition after the wait must leave the checker's held-stack
    // consistent: AssertHeld sees the mutex, and the release on scope exit
    // must not report a not-held violation.
    mu.AssertHeld();
  }
  signaller.join();
}

TEST(MutexTest, CondVarWaitWhileHoldingALowerRankedLockPasses) {
  // Waiting on a high-ranked mutex while holding a lower-ranked one is the
  // in-order shape; the wait's reacquisition must not re-run the order
  // check against the still-held low-ranked lock in a way that misfires.
  Mutex low(lock_rank::kScheduler);
  Mutex high(lock_rank::kLatencyRing);
  CondVar cv;
  bool ready = false;
  std::thread signaller([&] {
    MutexLock lock(&high);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock l1(&low);
    MutexLock l2(&high);
    while (!ready) {
      cv.Wait(&high);
    }
  }
  signaller.join();
}

TEST(MutexDeathTest, OutOfOrderAcquisitionAborts) {
  if (!kLockRankChecksEnabled) {
    GTEST_SKIP() << "lock-rank checker compiled out (Release build)";
  }
  EXPECT_DEATH(
      {
        Mutex high(lock_rank::kLatencyRing);
        Mutex low(lock_rank::kScheduler);
        MutexLock l1(&high);
        MutexLock l2(&low);  // 400 after 500: order inversion
      },
      "lock-rank violation: out-of-order acquisition");
}

TEST(MutexDeathTest, EqualRankAcquisitionAborts) {
  if (!kLockRankChecksEnabled) {
    GTEST_SKIP() << "lock-rank checker compiled out (Release build)";
  }
  // Two locks of the same rank cannot nest either — "strictly greater"
  // is what makes the global order acyclic.
  EXPECT_DEATH(
      {
        Mutex a(lock_rank::kScheduler);
        Mutex b(lock_rank::kScheduler);
        MutexLock l1(&a);
        MutexLock l2(&b);
      },
      "lock-rank violation: out-of-order acquisition");
}

TEST(MutexDeathTest, ReentrantAcquisitionAborts) {
  if (!kLockRankChecksEnabled) {
    GTEST_SKIP() << "lock-rank checker compiled out (Release build)";
  }
  // Must abort with a report rather than deadlock inside std::mutex —
  // the checker runs before the underlying lock for exactly this case.
  // Re-entrancy is fatal even for unranked mutexes.
  EXPECT_DEATH(
      {
        Mutex mu;
        mu.Lock();
        mu.Lock();
      },
      "lock-rank violation: re-entrant acquisition");
}

TEST(MutexDeathTest, AssertHeldAbortsWhenNotHeld) {
  if (!kLockRankChecksEnabled) {
    GTEST_SKIP() << "lock-rank checker compiled out (Release build)";
  }
  EXPECT_DEATH(
      {
        Mutex mu(lock_rank::kScheduler);
        mu.AssertHeld();
      },
      "AssertHeld failed");
}

}  // namespace
}  // namespace terids
