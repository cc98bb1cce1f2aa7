// OrderedPool, the streaming fleet's StEM fit pool: jobs finish in any order and come
// back in submission order, each worker's State is its own, a job that names an earlier
// one starts only after it and reads what it wrote, and a throwing job rethrows the first
// error in submission order only after every worker has stopped. Widths are
// passed to the pool's constructor, so every width runs on any host; AffinityWidth is
// checked against a one-CPU mask.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/one_cpu.h"
#include "qnet/infer/thread_pool.h"
#include "qnet/support/check.h"

namespace qnet {
namespace {

struct WorkerState {
  std::atomic<bool> busy{false};
};

// Spins until `flag` is set; only ever called where another worker sets it.
void AwaitFlag(const std::atomic<bool>& flag) {
  while (!flag.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

TEST(OrderedPool, JobsFinishOutOfOrderAndComeBackInSubmissionOrder) {
  constexpr std::size_t kJobs = 40;
  for (const std::size_t width : {1u, 2u, 4u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::vector<std::size_t> results(kJobs, 0);
    std::vector<std::size_t> finish_rank(kJobs, 0);
    std::vector<const WorkerState*> ran_on(kJobs, nullptr);
    std::vector<std::thread::id> ran_by(kJobs);
    std::atomic<std::size_t> finished{0};
    std::atomic<bool> job1_done{false};
    std::size_t collected = 0;
    OrderedPool<WorkerState> pool(width);
    EXPECT_EQ(pool.Workers(), width);
    const auto collect_oldest = [&] {
      pool.WaitOldest();
      // The job's result is visible once it is collected.
      EXPECT_EQ(results[collected], collected * collected + 1) << "job " << collected;
      ++collected;
    };
    for (std::size_t i = 0; i < kJobs; ++i) {
      while (pool.InFlight() >= 2 * width) {
        collect_oldest();
      }
      pool.Submit([&, i, width](WorkerState& state) {
        EXPECT_FALSE(state.busy.exchange(true)) << "two jobs share a worker's state";
        if (i == 0 && width > 1) {
          AwaitFlag(job1_done);  // job 1 runs on another worker and finishes first
        }
        if (i % 5 == 2) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        ran_on[i] = &state;
        ran_by[i] = std::this_thread::get_id();
        results[i] = i * i + 1;
        finish_rank[i] = finished.fetch_add(1);
        if (i == 1) {
          job1_done.store(true, std::memory_order_release);
        }
        state.busy.store(false);
      });
      if (width == 1) {
        EXPECT_TRUE(pool.OldestFinished()) << "one worker runs each job inline";
      }
    }
    while (pool.InFlight() > 0) {
      collect_oldest();
    }
    EXPECT_EQ(collected, kJobs);
    EXPECT_FALSE(pool.OldestFinished());
    if (width > 1) {
      EXPECT_LT(finish_rank[1], finish_rank[0]);
    }
    // Each worker's state stays on one thread, and each thread keeps one state: worker 0's
    // is the caller's.
    for (std::size_t i = 0; i < kJobs; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        EXPECT_EQ(ran_on[i] == ran_on[j], ran_by[i] == ran_by[j]) << "jobs " << j << ", " << i;
      }
    }
    std::vector<const WorkerState*> owners;
    for (const WorkerState* state : ran_on) {
      if (std::find(owners.begin(), owners.end(), state) == owners.end()) {
        owners.push_back(state);
      }
    }
    EXPECT_LE(owners.size(), width);
  }
}

TEST(OrderedPool, AJobStartsAfterTheJobItNamesAndReadsWhatItWrote) {
  // Three chains interleaved: job i names job i - 3, its chain's previous one, reads the
  // value that job wrote and writes the next. Job 0 waits until job 4 has finished, so
  // chain 1 runs ahead while chain 0's next job (3) is held behind job 0.
  constexpr std::size_t kJobs = 30;
  constexpr std::size_t kChains = 3;
  for (const std::size_t width : {1u, 2u, 4u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::vector<std::size_t> value(kJobs, 0);
    std::vector<std::atomic<bool>> finished(kJobs);
    std::vector<std::size_t> start_rank(kJobs, 0);
    std::atomic<std::size_t> starts{0};
    OrderedPool<WorkerState> pool(width);
    for (std::size_t i = 0; i < kJobs; ++i) {
      const std::size_t after = i >= kChains ? i - kChains : OrderedPool<WorkerState>::kNoJob;
      const std::size_t ticket = pool.Submit(
          [&, i, width](WorkerState&) {
            start_rank[i] = starts.fetch_add(1);
            if (i >= kChains) {
              EXPECT_TRUE(finished[i - kChains].load()) << "job " << i << " started early";
            }
            if (i == 0 && width > 1) {
              AwaitFlag(finished[4]);
            }
            if (i % 4 == 1) {
              std::this_thread::sleep_for(std::chrono::microseconds(100));
            }
            value[i] = (i >= kChains ? value[i - kChains] : 0) + 1;
            finished[i].store(true, std::memory_order_release);
          },
          after);
      EXPECT_EQ(ticket, i);
    }
    for (std::size_t i = 0; i < kJobs; ++i) {
      pool.WaitOldest();
      EXPECT_EQ(value[i], i / kChains + 1) << "job " << i;
    }
    if (width > 1) {
      EXPECT_LT(start_rank[4], start_rank[3]) << "a later job starts while one waits";
    }
  }
}

TEST(OrderedPool, FirstErrorInSubmissionOrderSurfacesAfterEveryWorkerStops) {
  constexpr std::size_t kJobs = 24;
  for (const std::size_t width : {1u, 2u, 4u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::atomic<std::size_t> started{0};
    std::atomic<std::size_t> finished{0};
    std::atomic<bool> job5_threw{false};
    OrderedPool<WorkerState> pool(width);
    for (std::size_t i = 0; i < kJobs; ++i) {
      pool.Submit([&, i, width](WorkerState&) {
        ++started;
        struct Finish {
          std::atomic<std::size_t>& finished;
          ~Finish() { ++finished; }
        } finish{finished};
        if (i == 3 && width > 1) {
          AwaitFlag(job5_threw);  // the later job throws first
        }
        if (i == 5) {
          job5_threw.store(true, std::memory_order_release);
          throw std::runtime_error("job 5");
        }
        if (i == 3) {
          QNET_CHECK(false, "job 3");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      });
    }
    for (std::size_t i = 0; i < 3; ++i) {
      pool.WaitOldest();
    }
    try {
      pool.WaitOldest();
      ADD_FAILURE() << "job 3's error did not surface";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find("job 3"), std::string::npos) << error.what();
    }
    // Every worker has stopped: whatever started has finished, and nothing starts now.
    const std::size_t ran = started.load();
    EXPECT_EQ(finished.load(), ran);
    EXPECT_GE(ran, width == 1 ? kJobs : 6u);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(started.load(), ran);
    EXPECT_THROW(pool.Submit([](WorkerState&) {}), Error);
  }
}

TEST(OrderedPool, DestructorJoinsWorkersWithJobsInFlight) {
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> finished{0};
  {
    OrderedPool<WorkerState> pool(4);
    for (std::size_t i = 0; i < 32; ++i) {
      pool.Submit([&](WorkerState&) {
        ++started;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        ++finished;
      });
    }
  }
  EXPECT_EQ(finished.load(), started.load());
}

TEST(AffinityWidth, CountsTheCallingThreadsMask) {
  EXPECT_GE(AffinityWidth(), 1u);
  {
    const qnet_testing::ScopedOneCpu one_cpu;
    EXPECT_EQ(AffinityWidth(), 1u);
  }
  EXPECT_GE(AffinityWidth(), 1u);
}

}  // namespace
}  // namespace qnet
