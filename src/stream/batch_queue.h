#ifndef TERIDS_STREAM_BATCH_QUEUE_H_
#define TERIDS_STREAM_BATCH_QUEUE_H_

#include <cstddef>
#include <deque>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace terids {

/// A bounded multi-producer / single-consumer handoff queue for the async
/// ingest pipeline (DESIGN.md §7, §10): ingested micro-batches are pushed
/// in FIFO order by whichever scheduler worker runs the current kIngest
/// chain link, so successive pushes may come from different threads — the
/// refine (consumer) thread pops them, and the bound caps how far ingest
/// may run ahead of refinement. Any number of
/// threads may Push concurrently; Pop is single-consumer. Close is a
/// producer-side signal, Cancel a consumer-side one; both are safe from any
/// thread.
///
/// Blocking mutex + condvar implementation: the capacity is small (the
/// EngineConfig::ingest_queue_depth double-buffer) and items are whole
/// micro-batches, so handoff cost is irrelevant next to the work each item
/// carries — simplicity and TSan-provable correctness win over lock-free
/// cleverness. The mutex also supplies the happens-before edge that makes
/// the producer's window/grid/imputer mutations visible to the consumer
/// (and, in scheduler mode, chains the edge from one kIngest link's worker
/// to the next).
///
/// Locking model (DESIGN.md §12): all mutable state is guarded by `mu_`
/// (rank lock_rank::kBatchQueue, the lowest rank — nothing may be acquired
/// while holding it, and a scheduler worker pushing here holds no lock).
template <typename T>
class BatchQueue {
 public:
  /// `capacity` >= 1 items may be buffered before Push blocks.
  explicit BatchQueue(size_t capacity) : capacity_(capacity) {
    TERIDS_CHECK(capacity >= 1);
  }

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  /// Enqueues `item`, blocking while the queue is full. Safe from multiple
  /// producer threads (the ingest chain's links run on varying workers).
  /// Returns false — dropping the item — once the consumer has Cancelled
  /// (which tells the producer to stop) or the queue has been Closed: after
  /// end-of-stream was signalled no further item can precede it, so a late
  /// Push is rejected like the Cancel path instead of tripping an invariant
  /// check only after winning the not-full wait. The result must be
  /// checked: a false return means the item was dropped and the producer
  /// has to stop.
  [[nodiscard]] bool Push(T item) {
    MutexLock lock(&mu_);
    while (!(items_.size() < capacity_ || cancelled_ || closed_)) {
      not_full_.Wait(&mu_);
    }
    if (cancelled_ || closed_) {
      return false;
    }
    items_.push_back(std::move(item));
    if (items_.size() > high_watermark_) {
      high_watermark_ = items_.size();
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Enqueues ignoring the capacity bound — the degrade policy's pressure
  /// valve (DESIGN.md §13): admission must never block, so the overshoot
  /// rides into the queue and the consumer absorbs it as bound-only
  /// (degraded) batches. Returns false after Close/Cancel, like Push.
  [[nodiscard]] bool ForcePush(T item) {
    MutexLock lock(&mu_);
    if (cancelled_ || closed_) {
      return false;
    }
    items_.push_back(std::move(item));
    if (items_.size() > high_watermark_) {
      high_watermark_ = items_.size();
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Applies `fn` to the oldest queued item iff the queue is currently at
  /// (or beyond) capacity — the shed_oldest policy's marking hook: the
  /// batch sacrificed under pressure is the one that has waited longest.
  /// `fn` runs under the queue mutex (atomically against a concurrent Pop),
  /// so it must be cheap and must not touch this queue. Returns whether
  /// `fn` ran.
  template <typename Fn>
  bool MutateOldestIfFull(Fn&& fn) {
    MutexLock lock(&mu_);
    if (items_.empty() || items_.size() < capacity_) {
      return false;
    }
    fn(&items_.front());
    return true;
  }

  /// Dequeues into `*out`, blocking while the queue is empty and not yet
  /// closed. Returns false once the queue is closed and drained, or
  /// immediately after Cancel. Single-consumer: exactly one thread pops.
  [[nodiscard]] bool Pop(T* out) {
    MutexLock lock(&mu_);
    while (!(!items_.empty() || closed_ || cancelled_)) {
      not_empty_.Wait(&mu_);
    }
    if (cancelled_ || items_.empty()) {
      return false;
    }
    *out = std::move(items_.front());
    items_.pop_front();
    not_full_.NotifyOne();
    return true;
  }

  /// Producer signals end-of-stream: already queued items remain poppable,
  /// then Pop returns false, and any later Push returns false.
  void Close() {
    MutexLock lock(&mu_);
    closed_ = true;
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  /// Consumer aborts the handoff: a blocked (or any later) Push returns
  /// false so the producer stops promptly instead of working the stream
  /// dry into a queue nobody reads. Buffered items are dropped.
  void Cancel() {
    MutexLock lock(&mu_);
    cancelled_ = true;
    items_.clear();
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  size_t capacity() const { return capacity_; }

  /// Current occupancy. Approximate by nature: the value may be stale the
  /// instant the lock drops — good enough for the overload pressure signal
  /// and observability, never for synchronization.
  size_t size() {
    MutexLock lock(&mu_);
    return items_.size();
  }

  /// Highest occupancy ever observed at a push (ForcePush can drive it past
  /// capacity()). Monotone over the queue's lifetime.
  size_t high_watermark() {
    MutexLock lock(&mu_);
    return high_watermark_;
  }

 private:
  const size_t capacity_;
  Mutex mu_{lock_rank::kBatchQueue};
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ TERIDS_GUARDED_BY(mu_);
  size_t high_watermark_ TERIDS_GUARDED_BY(mu_) = 0;
  bool closed_ TERIDS_GUARDED_BY(mu_) = false;
  bool cancelled_ TERIDS_GUARDED_BY(mu_) = false;
};

}  // namespace terids

#endif  // TERIDS_STREAM_BATCH_QUEUE_H_
