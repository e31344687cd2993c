#ifndef TERIDS_UTIL_MUTEX_H_
#define TERIDS_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace terids {

/// The global lock-acquisition order (DESIGN.md §12). A thread may only
/// acquire a ranked Mutex whose rank is *strictly greater* than the rank of
/// every ranked Mutex it already holds; in Debug builds the checker below
/// aborts on any violation (including re-entrant acquisition), and in
/// Release builds the bookkeeping compiles out entirely. Unranked mutexes
/// (the default) skip the order check but still participate in re-entrancy
/// detection.
///
/// The named ranks document the engine's only permitted nesting chain:
/// executor state locks before the latency-histogram rings — "scheduler
/// before histogram". The single live nesting is Scheduler::mu_ ->
/// Scheduler::ext_mu_ (ConsumeLatencies folds the external callers' ring
/// while holding the scheduler queue lock).
namespace lock_rank {

/// Default: exempt from the order check (re-entrancy still fatal).
inline constexpr int kUnranked = 0;
/// exec/scheduler.h — the unified scheduler's submission queue (mu_).
inline constexpr int kScheduler = 400;
/// exec/scheduler.h — the external ParallelFor callers' latency ring
/// (ext_mu_); may be acquired while holding kScheduler, never the reverse.
inline constexpr int kLatencyRing = 500;

}  // namespace lock_rank

/// True when the Debug lock-rank checker is compiled in (tests use this to
/// skip death expectations in Release builds, where the bookkeeping — the
/// thread-local held-lock stack and every check — is compiled out).
#ifndef NDEBUG
inline constexpr bool kLockRankChecksEnabled = true;
#else
inline constexpr bool kLockRankChecksEnabled = false;
#endif

class Mutex;

namespace lock_debug {

/// Debug-build bookkeeping over a thread-local stack of held mutexes.
/// OnAcquire CHECK-fails on re-entrancy and on out-of-rank-order
/// acquisition; the Wait variants let CondVar::Wait release and reacquire
/// without re-running the order check (cv reacquisition is ordered by the
/// wait itself, not by the rank discipline).
void OnAcquire(const Mutex* mu, int rank);
void OnRelease(const Mutex* mu);
void OnWaitRelease(const Mutex* mu);
void OnWaitReacquire(const Mutex* mu, int rank);
bool IsHeldByThisThread(const Mutex* mu);

}  // namespace lock_debug

/// An annotated std::mutex: the capability type every subsystem locks
/// (DESIGN.md §12). Construction takes an optional lock_rank::* rank; Debug
/// builds enforce the global acquisition order on every Lock.
class TERIDS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(int rank) : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TERIDS_ACQUIRE() {
    // The checker runs *before* the underlying lock: a re-entrant or
    // out-of-order acquisition is exactly the case that can deadlock inside
    // mu_.lock(), and a hung process reports nothing.
#ifndef NDEBUG
    lock_debug::OnAcquire(this, rank_);
#endif
    mu_.lock();
  }

  void Unlock() TERIDS_RELEASE() {
#ifndef NDEBUG
    lock_debug::OnRelease(this);
#endif
    mu_.unlock();
  }

  /// Debug assertion that the calling thread holds this mutex; tells the
  /// static analysis the capability is held in contexts it cannot follow.
  void AssertHeld() const TERIDS_ASSERT_CAPABILITY(this);

  int rank() const { return rank_; }

 private:
  friend class CondVar;

  std::mutex mu_;
  const int rank_ = lock_rank::kUnranked;
};

/// RAII lock for a Mutex; the scoped capability the analysis tracks.
class TERIDS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) TERIDS_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() TERIDS_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable paired with terids::Mutex. No predicate overloads:
/// callers write the explicit `while (!cond) cv.Wait(&mu);` loop inside a
/// MutexLock scope, which keeps every guarded-member read visibly under the
/// capability for the analysis.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `*mu` and blocks until notified (spurious wakeups
  /// possible, as with std::condition_variable), reacquiring before return.
  void Wait(Mutex* mu) TERIDS_REQUIRES(mu);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace terids

#endif  // TERIDS_UTIL_MUTEX_H_
