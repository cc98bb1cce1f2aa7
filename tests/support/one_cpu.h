// Test and bench helper: narrows the calling thread's CPU affinity mask to one CPU for
// a scope and restores the mask afterwards. The streaming fleet sizes its fit pool from
// that mask (AffinityWidth, infer/thread_pool.h), so a run inside the scope takes the
// W = 1 path — every fit inline on the caller's thread — while the same run outside it
// uses every CPU the thread may run on. `which` picks the CPU: the (which mod n)-th of
// the n in the mask, so a caller can rotate through them. Shared by the shard, stream,
// telemetry and entry-validation suites and by perf_shard.

#ifndef QNET_TESTS_SUPPORT_ONE_CPU_H_
#define QNET_TESTS_SUPPORT_ONE_CPU_H_

#include <sched.h>

#include <cstddef>

#include "qnet/infer/thread_pool.h"
#include "qnet/support/check.h"

namespace qnet_testing {

class ScopedOneCpu {
 public:
  explicit ScopedOneCpu(std::size_t which = 0) {
    CPU_ZERO(&saved_);
    QNET_CHECK(sched_getaffinity(0, sizeof(saved_), &saved_) == 0,
               "cannot read the thread's CPU affinity");
    which %= static_cast<std::size_t>(CPU_COUNT(&saved_));
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_) && which-- == 0) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    QNET_CHECK(sched_setaffinity(0, sizeof(one), &one) == 0,
               "cannot narrow the thread's CPU affinity");
  }
  ~ScopedOneCpu() { sched_setaffinity(0, sizeof(saved_), &saved_); }

  ScopedOneCpu(const ScopedOneCpu&) = delete;
  ScopedOneCpu& operator=(const ScopedOneCpu&) = delete;

 private:
  cpu_set_t saved_;
};

// Makes the fleet's fit pool `width` wide on the calling thread for a scope (through the
// AffinityWidth test seam), whatever the host's CPUs, so widths 2 and 4 run — and run
// under TSan — on a one-core host too.
class ScopedFitPoolWidth {
 public:
  explicit ScopedFitPoolWidth(std::size_t width) {
    qnet::internal::SetAffinityWidthForTesting(width);
  }
  ~ScopedFitPoolWidth() { qnet::internal::SetAffinityWidthForTesting(0); }

  ScopedFitPoolWidth(const ScopedFitPoolWidth&) = delete;
  ScopedFitPoolWidth& operator=(const ScopedFitPoolWidth&) = delete;
};

}  // namespace qnet_testing

#endif  // QNET_TESTS_SUPPORT_ONE_CPU_H_
