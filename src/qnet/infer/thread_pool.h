// Thread helpers for coarse work units: a fork-join loop (the scenario engine's cells)
// and a one-deep pipeline stage (a StEM lane of a multi-lane fleet).
//
// RunOnThreadPool's static item -> worker partition (item i runs on worker i mod W) makes
// the work assignment — and therefore any per-item RNG stream consumption — a pure
// function of (items, threads), never of scheduling. Worker exceptions are captured per
// worker and the first (by worker index) is rethrown after join, so a QNET_CHECK failure
// inside a worker surfaces to the caller instead of terminating the process.
//
// Both spawn threads per call, which fits coarse work units (a whole scenario cell, a
// whole lane). They are not meant for fine-grained repeated dispatch — e.g. one sweep
// per call, many thousands of calls — where spawning threads costs as much as the work.

#ifndef QNET_INFER_THREAD_POOL_H_
#define QNET_INFER_THREAD_POOL_H_

#include <algorithm>
#include <cstddef>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "qnet/support/check.h"

namespace qnet {

// The number of workers RunOnThreadPool starts: `threads`, capped at `items` (a worker
// with no item is never started), and at least 1.
inline std::size_t PoolWorkers(std::size_t items, std::size_t threads) {
  return std::max<std::size_t>(1, std::min(threads, items));
}

// Runs work(i) for every i in [0, items) on a static round-robin partition over
// W = PoolWorkers(items, threads) workers: item i runs on worker i mod W. W == 1 is a
// plain sequential loop on the calling thread.
template <typename Work>
void RunOnThreadPool(std::size_t items, std::size_t threads, const Work& work) {
  threads = PoolWorkers(items, threads);
  if (threads == 1) {
    for (std::size_t i = 0; i < items; ++i) {
      work(i);
    }
    return;
  }
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        for (std::size_t i = t; i < items; i += threads) {
          work(i);
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

// One-deep pipeline stage: runs a single coarse work unit on a background thread while
// the caller keeps producing (e.g. each StEM lane of a multi-lane fleet drains its
// queue and fits its windows on a slot while the router keeps ingesting).
// Spawn-per-submit, matching RunOnThreadPool's coarse-unit philosophy — a lane runs for
// a whole stream, so thread spawn cost is noise. Exceptions thrown by the work unit are
// rethrown from Wait(); a slot destroyed while busy joins first and swallows the
// exception (call Wait() before destruction to observe it).
class PipelineSlot {
 public:
  PipelineSlot() = default;
  ~PipelineSlot() {
    if (worker_.joinable()) {
      worker_.join();
    }
  }

  PipelineSlot(const PipelineSlot&) = delete;
  PipelineSlot& operator=(const PipelineSlot&) = delete;

  bool Busy() const { return worker_.joinable(); }

  // Starts `work` on the background thread. The slot must be idle (Wait() first).
  template <typename Work>
  void Submit(Work&& work) {
    QNET_CHECK(!Busy(), "PipelineSlot::Submit while busy; call Wait() first");
    error_ = nullptr;
    worker_ = std::thread([this, w = std::forward<Work>(work)]() mutable {
      try {
        w();
      } catch (...) {
        error_ = std::current_exception();
      }
    });
  }

  // Blocks until the in-flight work unit (if any) finishes; rethrows its exception.
  void Wait() {
    if (!worker_.joinable()) {
      return;
    }
    worker_.join();
    worker_ = std::thread();
    if (error_ != nullptr) {
      std::exception_ptr error = std::exchange(error_, nullptr);
      std::rethrow_exception(error);
    }
  }

 private:
  std::thread worker_;
  std::exception_ptr error_;
};

}  // namespace qnet

#endif  // QNET_INFER_THREAD_POOL_H_
