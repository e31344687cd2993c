#include "exec/scheduler.h"

#include <chrono>
#include <utility>

#include "util/status.h"

namespace terids {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void Scheduler::LatencyRing::Record(ExecPhase phase, uint64_t nanos) {
  if (samples.size() >= kCapacity) {
    for (const Sample& s : samples) {
      folded.of(s.phase).RecordNanos(s.nanos);
    }
    samples.clear();
  }
  samples.push_back(Sample{phase, nanos});
}

void Scheduler::LatencyRing::FoldInto(LatencyStats* out) {
  for (const Sample& s : samples) {
    folded.of(s.phase).RecordNanos(s.nanos);
  }
  samples.clear();
  out->Merge(folded);
  folded.Reset();
}

Scheduler::Scheduler(int num_workers) : num_workers_(num_workers) {
  TERIDS_CHECK(num_workers >= 1);
  rings_.resize(static_cast<size_t>(num_workers_) + 1);
  for (auto& ring : rings_) {
    ring.samples.reserve(LatencyRing::kCapacity);
  }
  workers_.reserve(num_workers_);
  for (int i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Scheduler::~Scheduler() {
  {
    MutexLock lock(&mu_);
    // Let the workers run everything still queued before they exit: shutdown
    // only stops them once the queue is empty (see WorkerLoop), so no
    // submitted item is ever dropped.
    shutdown_ = true;
  }
  work_ready_.NotifyAll();
  for (auto& t : workers_) {
    t.join();
  }
}

void Scheduler::Enqueue(std::shared_ptr<Job> job) {
  {
    MutexLock lock(&mu_);
    TERIDS_CHECK(!shutdown_);
    queue_.push_back(std::move(job));
  }
  work_ready_.NotifyAll();
}

bool Scheduler::ClaimTask(std::shared_ptr<Job>* job, int64_t* task) {
  while (!queue_.empty() && queue_.front()->next >= queue_.front()->total) {
    queue_.pop_front();
  }
  if (queue_.empty()) {
    return false;
  }
  *job = queue_.front();
  *task = (*job)->next++;
  ++in_flight_;
  if ((*job)->next >= (*job)->total) {
    queue_.pop_front();
  }
  return true;
}

void Scheduler::RunTask(const std::shared_ptr<Job>& job, int64_t task,
                        LatencyRing* ring) {
  const uint64_t start = NowNanos();
  (*job->fn)(task);
  if (ring != nullptr) {
    ring->Record(job->phase, NowNanos() - start);
  }
  {
    MutexLock lock(&mu_);
    ++job->finished;
    --in_flight_;
  }
  job_done_.NotifyAll();
}

void Scheduler::WorkerLoop(int worker_index) {
  LatencyRing* ring = &rings_[worker_index];
  for (;;) {
    std::shared_ptr<Job> job;
    int64_t task = 0;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) {
        work_ready_.Wait(&mu_);
      }
      if (!ClaimTask(&job, &task)) {
        if (shutdown_) {
          return;  // queue drained, nothing left to run
        }
        continue;
      }
    }
    RunTask(job, task, ring);
  }
}

void Scheduler::ParallelFor(ExecPhase phase, int64_t num_tasks,
                            const std::function<void(int64_t)>& fn) {
  if (num_tasks <= 0) {
    return;
  }
  if (num_tasks == 1) {
    // Nothing to fan out; run inline (still recorded as a phase sample).
    const uint64_t start = NowNanos();
    fn(0);
    MutexLock lock(&ext_mu_);
    rings_.back().Record(phase, NowNanos() - start);
    return;
  }
  auto job = std::make_shared<Job>();
  job->phase = phase;
  job->fn = &fn;
  job->total = num_tasks;
  Enqueue(job);

  // Participate: claim tasks from our own job only, so the caller's wait
  // never depends on another job's tasks.
  for (;;) {
    int64_t task;
    {
      MutexLock lock(&mu_);
      if (job->next >= job->total) {
        break;
      }
      task = job->next++;
      ++in_flight_;
      if (job->next >= job->total) {
        // Fully claimed; drop it from the queue so workers skip it.
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
          if (it->get() == job.get()) {
            queue_.erase(it);
            break;
          }
        }
      }
    }
    const uint64_t start = NowNanos();
    try {
      fn(task);
    } catch (...) {
      // Cancel the unclaimed remainder, wait out in-flight tasks, rethrow.
      MutexLock lock(&mu_);
      job->total = job->next;
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->get() == job.get()) {
          queue_.erase(it);
          break;
        }
      }
      ++job->finished;
      --in_flight_;
      while (!job->IsDone()) {
        job_done_.Wait(&mu_);
      }
      throw;
    }
    const uint64_t elapsed = NowNanos() - start;
    {
      MutexLock lock(&ext_mu_);
      rings_.back().Record(phase, elapsed);
    }
    {
      MutexLock lock(&mu_);
      ++job->finished;
      --in_flight_;
    }
    job_done_.NotifyAll();
  }

  MutexLock lock(&mu_);
  while (!job->IsDone()) {
    job_done_.Wait(&mu_);
  }
}

bool Scheduler::QuiescedLocked() const {
  if (in_flight_ > 0) {
    return false;
  }
  for (const auto& job : queue_) {
    if (job->next < job->total) {
      return false;
    }
  }
  return true;
}

void Scheduler::Drain() {
  MutexLock lock(&mu_);
  while (!QuiescedLocked()) {
    job_done_.Wait(&mu_);
  }
}

LatencyStats Scheduler::ConsumeLatencies() {
  Drain();
  LatencyStats out;
  // Workers are idle (Drain) and stay idle unless someone submits, which
  // the contract forbids during collection; mu_/job_done_ in RunTask gave
  // us the happens-before edge for their rings.
  MutexLock lock(&mu_);
  for (int i = 0; i < num_workers_; ++i) {
    rings_[i].FoldInto(&out);
  }
  {
    MutexLock ext(&ext_mu_);
    rings_.back().FoldInto(&out);
  }
  return out;
}

}  // namespace terids
