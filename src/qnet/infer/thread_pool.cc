#include "qnet/infer/thread_pool.h"

#include <sched.h>

namespace qnet {

namespace {
thread_local std::size_t width_for_testing = 0;
}  // namespace

void internal::SetAffinityWidthForTesting(std::size_t width) { width_for_testing = width; }

std::size_t AffinityWidth() {
  if (width_for_testing > 0) {
    return width_for_testing;
  }
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) {
    return 1;
  }
  return std::max<std::size_t>(1, static_cast<std::size_t>(CPU_COUNT(&mask)));
}

}  // namespace qnet
