#ifndef TERIDS_EXEC_SCHEDULER_H_
#define TERIDS_EXEC_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "eval/latency_histogram.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace terids {

/// The unified execution scheduler (DESIGN.md §10): one fixed worker pool
/// serving the one parallel phase of the arrival pipeline — the pair
/// refinement fan-out (kRefine) — through fork-join ParallelFor jobs on one
/// multi-producer submission queue. Ingest, the ER-grid probe and
/// maintenance run on the caller, so kIngest, kCandidate and kMaintain
/// carry no items; the tags stay so every phase reports a (possibly empty)
/// latency row. It is the engine's only parallel executor: no other
/// component starts a thread.
///
/// Thread-safety: every public method is safe to call concurrently from any
/// thread. Each ParallelFor is an independent job with its own completion
/// barrier, so fan-outs from different threads interleave freely on the
/// shared workers.
///
/// Blocking discipline: a ParallelFor caller first drains every unclaimed
/// task of its own job inline, then waits only for tasks already claimed by
/// workers. A job therefore completes even when every worker is busy
/// elsewhere, which makes nested fan-outs (a ParallelFor inside a work
/// item) deadlock-free.
///
/// Determinism: which worker runs which task is nondeterministic; callers
/// needing deterministic output must write into per-task slots
/// (RefinementExecutor does).
///
/// Locking model (DESIGN.md §12): the submission queue, the in-flight
/// count, and the shutdown flag are guarded by `mu_` (rank
/// lock_rank::kScheduler); the external callers' latency ring is guarded by
/// `ext_mu_` (rank kLatencyRing, the one mutex legitimately acquired while
/// holding `mu_` — ConsumeLatencies). Work items always run with both
/// released.
class Scheduler {
 public:
  /// Spawns `num_workers` >= 1 persistent workers. (A pipeline that needs
  /// no workers constructs no Scheduler and runs every fan-out inline.)
  explicit Scheduler(int num_workers);
  /// Drains every pending and in-flight work item (nothing submitted is
  /// ever lost), then joins the workers. Callers must not submit
  /// concurrently with destruction.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  int num_workers() const { return num_workers_; }
  /// Parallelism a fork-join fan-out can reach: the workers plus the
  /// participating caller.
  int concurrency() const { return num_workers_ + 1; }

  /// Fork-join: runs fn(i) for every i in [0, num_tasks) on the workers and
  /// the calling thread, returning when all calls finished (the per-job
  /// completion barrier). Safe to call concurrently from multiple threads
  /// and to nest inside a work item. If fn throws on the calling thread,
  /// remaining unclaimed tasks are cancelled, in-flight tasks are awaited,
  /// and the exception is rethrown; fn must not throw on a worker (that
  /// would terminate).
  void ParallelFor(ExecPhase phase, int64_t num_tasks,
                   const std::function<void(int64_t)>& fn);

  /// Blocks until every submitted task has finished and the queue is
  /// empty. Concurrent submitters can starve the drain; the intended use is
  /// quiescing between streams.
  void Drain();

  /// Drains, then merges and clears every worker's latency ring: per-phase
  /// histograms of work-item service times (queue wait excluded), including
  /// tasks executed inline by ParallelFor callers. The `end_to_end`
  /// histogram is left empty — arrival latency is the pipeline's to
  /// measure.
  LatencyStats ConsumeLatencies();

 private:
  /// One submitted fork-join job of `total` indexed tasks. Lifetime is
  /// managed by shared_ptr: the queue and every claiming worker hold
  /// references, so the job lives past the caller's barrier until its last
  /// claimant lets go. The mutable counters (`next`, `total`, `finished`)
  /// are guarded by the owning scheduler's `mu_` — expressed here as a
  /// comment rather than an annotation because the analysis cannot name
  /// another object's member as the capability.
  struct Job {
    ExecPhase phase = ExecPhase::kRefine;
    const std::function<void(int64_t)>* fn = nullptr;
    int64_t next = 0;      // first unclaimed task index
    int64_t total = 0;     // one past the last task index
    int64_t finished = 0;  // tasks completed (== claims, eventually)
    bool IsDone() const { return next >= total && finished >= next; }
  };

  /// Per-worker single-writer sample ring. The worker appends (phase,
  /// nanos) pairs lock-free; when the ring fills it folds into the
  /// worker-local histogram set. ConsumeLatencies reads both only after
  /// Drain, whose queue mutex provides the happens-before edge.
  struct LatencyRing {
    static constexpr size_t kCapacity = 1024;
    struct Sample {
      ExecPhase phase;
      uint64_t nanos;
    };
    std::vector<Sample> samples;
    LatencyStats folded;

    void Record(ExecPhase phase, uint64_t nanos);
    void FoldInto(LatencyStats* out);
  };

  void WorkerLoop(int worker_index);
  /// Claims the front job's next task (popping the job once fully
  /// claimed); returns false when the queue is empty.
  bool ClaimTask(std::shared_ptr<Job>* job, int64_t* task)
      TERIDS_REQUIRES(mu_);
  /// Runs one claimed task, records its service time into `ring`, and
  /// settles the job's completion under `mu_`. Called with `mu_` released.
  void RunTask(const std::shared_ptr<Job>& job, int64_t task,
               LatencyRing* ring);
  void Enqueue(std::shared_ptr<Job> job);
  /// True when nothing is in flight and nothing claimable remains queued.
  bool QuiescedLocked() const TERIDS_REQUIRES(mu_);

  const int num_workers_;
  std::vector<std::thread> workers_;

  Mutex mu_{lock_rank::kScheduler};
  CondVar work_ready_;  // queue became non-empty / shutdown
  CondVar job_done_;    // some job finished a task batch
  std::deque<std::shared_ptr<Job>> queue_ TERIDS_GUARDED_BY(mu_);
  // Claimed-but-unfinished tasks, all jobs.
  int64_t in_flight_ TERIDS_GUARDED_BY(mu_) = 0;
  bool shutdown_ TERIDS_GUARDED_BY(mu_) = false;

  // Ring 0..num_workers-1 belong to the workers (single-writer, lock-free;
  // ConsumeLatencies reads them under `mu_` after Drain quiesced the
  // workers); the last ring is shared by every external ParallelFor caller
  // and guarded by `ext_mu_` (caller participation is rare enough that one
  // mutex beats per-thread registration). Not TERIDS_GUARDED_BY: elements
  // of one vector split between the single-writer discipline and `ext_mu_`,
  // which the per-member annotation cannot express.
  std::vector<LatencyRing> rings_;
  Mutex ext_mu_{lock_rank::kLatencyRing};
};

}  // namespace terids

#endif  // TERIDS_EXEC_SCHEDULER_H_
