// An ordered job pool for coarse work units: the streaming fleet's StEM fits of closed
// windows and the scenario engine's grid cells.
//
// OrderedPool keeps W workers, each with its own State (a workspace), and hands its jobs
// back in submission order, so what the caller does with the results is a pure function
// of what it submitted, never of which worker finished first. A job's error surfaces in
// submission order after every worker has stopped, so a QNET_CHECK failure inside a job
// reaches the caller instead of terminating the process. The streaming fleet sizes it
// with AffinityWidth(): a caller pinned to one CPU gets W = 1, where jobs run inline and
// no thread starts.
//
// It fits coarse work units (a whole window fit, a whole scenario cell). It is not meant
// for fine-grained repeated dispatch — e.g. one sweep per job — where the hand-off costs
// as much as the work.

#ifndef QNET_INFER_THREAD_POOL_H_
#define QNET_INFER_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "qnet/support/check.h"

namespace qnet {

// The CPUs the calling thread may run on: the size of its affinity mask
// (sched_getaffinity), at least 1. A process pinned to one CPU reads 1 whatever the
// host's core count.
std::size_t AffinityWidth();

namespace internal {
// Test seam, not an option: makes AffinityWidth() read `width` on the calling thread, so
// every fit-pool width runs on any host; 0 restores the mask.
void SetAffinityWidthForTesting(std::size_t width);
}  // namespace internal

// W workers, each owning one State, that run submitted jobs and give them back in
// submission order. Worker 0 is the caller itself and workers 1..W-1 are threads. Jobs
// start in submission order and finish in any order; the caller collects them oldest
// first (WaitOldest), so a job's result — which the job writes into storage the caller
// owns — is read in the order the jobs were submitted. A job receives its worker's State
// and must touch nothing another unfinished job touches.
//
// A job may name an earlier job it reads (Submit's `after`, that job's ticket): it starts
// only once that job has finished, and sees everything it wrote. Later jobs may start
// meanwhile. A worker that finishes a job takes the next startable one without sleeping,
// so a chain of such jobs runs back to back.
//
// With one worker no thread ever starts: Submit runs the job inline, on the caller's
// thread and the one State, and the job is finished when Submit returns. With W > 1 the
// threads start at the first Submit, and a waiting caller runs the startable jobs no
// thread has taken yet.
//
// Errors: a throwing job's exception is kept with it. Collecting that job stops the pool —
// jobs not yet started are dropped and every worker is joined — and then rethrows, so the
// first error in submission order surfaces after every worker has stopped. The destructor
// stops the pool the same way, so a caller that unwinds past it joins every worker before
// the storage its jobs write into is destroyed.
//
// Jobs sit in a ring of slots that are reused once collected: the ring grows only when
// more jobs are in flight than ever before, so a warm pool run at a bounded depth (both
// callers keep at most 2W jobs in flight) allocates nothing per job beyond what the job's
// own std::function needs — nothing for the callers' pointer-sized captures.
//
// Submit, OldestFinished, WaitOldest and InFlight belong to one caller thread.
template <typename State>
class OrderedPool {
 public:
  using Job = std::function<void(State&)>;
  // Submit's `after` for a job that reads no other job.
  static constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);

  explicit OrderedPool(std::size_t workers) : states_(std::max<std::size_t>(workers, 1)) {}
  ~OrderedPool() { Stop(); }

  OrderedPool(const OrderedPool&) = delete;
  OrderedPool& operator=(const OrderedPool&) = delete;

  std::size_t Workers() const { return states_.size(); }

  // Jobs submitted and not yet collected.
  std::size_t InFlight() const { return count_; }

  // Submits `job` to start once the job with ticket `after` has finished, and returns its
  // own ticket: the number of jobs submitted before it.
  std::size_t Submit(Job job, std::size_t after = kNoJob) {
    QNET_CHECK(!stopped_, "OrderedPool::Submit after the pool stopped");
    QNET_CHECK(after == kNoJob || after < collected_ + count_,
               "OrderedPool::Submit after a job not yet submitted");
    const std::size_t ticket = collected_ + count_;
    if (states_.size() == 1) {
      // Every earlier job has finished: each ran inline in its own Submit.
      Entry& entry = PushBack();
      entry.started = true;
      entry.error = Run(job, states_.front());
      entry.done.store(true, std::memory_order_relaxed);
      return ticket;
    }
    if (threads_.empty()) {
      threads_.reserve(states_.size() - 1);
      for (std::size_t worker = 1; worker < states_.size(); ++worker) {
        threads_.emplace_back([this, worker] { Work(states_[worker]); });
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      Entry& entry = PushBack();
      entry.job = std::move(job);
      entry.after = after;
    }
    job_ready_.notify_one();
    return ticket;
  }

  // Whether the oldest uncollected job has finished (false when none is in flight).
  bool OldestFinished() const {
    return count_ > 0 && At(0).done.load(std::memory_order_acquire);
  }

  // Blocks until the oldest uncollected job finishes, running the startable jobs no thread
  // has taken meanwhile, and collects it. If it threw, stops the pool (see the class
  // comment) and rethrows its exception.
  void WaitOldest() {
    QNET_CHECK(count_ > 0 && !stopped_, "OrderedPool::WaitOldest with no job to wait on");
    std::unique_lock<std::mutex> lock(mu_);
    while (!At(0).done.load(std::memory_order_relaxed)) {
      const std::size_t next = NextStartable();
      if (next < count_) {
        RunAt(lock, next, states_.front());
      } else {
        job_done_.wait(lock);
      }
    }
    std::exception_ptr error = std::move(At(0).error);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
    ++collected_;
    lock.unlock();
    if (error) {
      Stop();
      std::rethrow_exception(error);
    }
  }

 private:
  struct Entry {
    Job job;
    std::size_t after = kNoJob;  // ticket of the job this one waits for
    bool started = false;        // guarded by mu_
    std::exception_ptr error;
    std::atomic<bool> done{false};
  };

  static std::exception_ptr Run(Job& job, State& state) {
    try {
      job(state);
    } catch (...) {
      return std::current_exception();
    }
    return nullptr;
  }

  // The i-th oldest uncollected job (ticket collected_ + i).
  Entry& At(std::size_t i) const { return *ring_[(head_ + i) & (ring_.size() - 1)]; }

  // Appends a cleared entry for the next job: a collected slot when one is free, else the
  // ring doubles, moving only slot pointers, so entries keep their addresses. Called by
  // the caller thread, with mu_ held when threads run.
  Entry& PushBack() {
    if (count_ == ring_.size()) {
      std::vector<std::unique_ptr<Entry>> grown(std::max<std::size_t>(4, 2 * ring_.size()));
      for (std::size_t i = 0; i < count_; ++i) {
        grown[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
      }
      for (std::size_t i = count_; i < grown.size(); ++i) {
        grown[i] = std::make_unique<Entry>();
      }
      ring_ = std::move(grown);
      head_ = 0;
    }
    Entry& entry = At(count_++);
    entry.after = kNoJob;
    entry.started = false;
    entry.error = nullptr;
    entry.done.store(false, std::memory_order_relaxed);
    return entry;
  }

  // Index (from the oldest) of the oldest job from `from` on that has not started and
  // whose `after` has finished (collected jobs all have), or count_. Called with mu_ held.
  std::size_t NextStartable(std::size_t from = 0) const {
    for (std::size_t i = from; i < count_; ++i) {
      const Entry& entry = At(i);
      if (!entry.started &&
          (entry.after == kNoJob || entry.after < collected_ ||
           At(entry.after - collected_).done.load(std::memory_order_relaxed))) {
        return i;
      }
    }
    return count_;
  }

  // Starts the job at `index` on `state`, runs it unlocked and marks it done. Called with
  // `lock` held, and returns with it held. The caller collects only finished entries and
  // the ring never moves an entry, so the entry outlives the unlocked run.
  void RunAt(std::unique_lock<std::mutex>& lock, std::size_t index, State& state) {
    Entry& entry = At(index);
    entry.started = true;
    Job job = std::move(entry.job);
    lock.unlock();
    std::exception_ptr error = Run(job, state);
    lock.lock();
    entry.error = std::move(error);
    entry.done.store(true, std::memory_order_release);
  }

  void Work(State& state) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      std::size_t next = count_;
      job_ready_.wait(lock, [&] {
        next = NextStartable();
        return stopping_ || next < count_;
      });
      if (stopping_) {
        return;
      }
      // More work than this worker takes (a finished job can make a second one startable):
      // wake another.
      if (NextStartable(next + 1) < count_) {
        job_ready_.notify_one();
      }
      RunAt(lock, next, state);
      job_done_.notify_one();
    }
  }

  void Stop() {
    stopped_ = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    job_ready_.notify_all();
    for (std::thread& thread : threads_) {
      thread.join();
    }
    threads_.clear();
  }

  std::vector<State> states_;  // states_[0] is the caller's
  std::mutex mu_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;  // only the caller waits on it
  // Uncollected jobs, oldest first: At(i) has ticket collected_ + i. A power-of-two ring
  // of individually allocated slots, reused once collected. The caller pushes and pops
  // (under mu_); threads only index it, under mu_.
  std::vector<std::unique_ptr<Entry>> ring_;
  std::size_t head_ = 0;       // ring_ index of the oldest uncollected job
  std::size_t count_ = 0;      // uncollected jobs
  std::size_t collected_ = 0;  // jobs collected; written under mu_
  bool stopping_ = false;      // guarded by mu_: threads exit
  bool stopped_ = false;       // caller side: no more Submit or WaitOldest
  std::vector<std::thread> threads_;  // workers 1..W-1, after everything they use
};

}  // namespace qnet

#endif  // QNET_INFER_THREAD_POOL_H_
