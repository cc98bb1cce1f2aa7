// Counting replacement of the global allocation operators, shared by the allocation-free
// tests and the allocation-count benchmarks. Include from exactly ONE translation unit per
// binary: it *defines* global operator new/delete, so a second including TU in the same
// link violates the one-definition rule.

#ifndef QNET_TESTS_SUPPORT_COUNTING_ALLOCATOR_H_
#define QNET_TESTS_SUPPORT_COUNTING_ALLOCATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace qnet_testing {

inline std::atomic<std::size_t> g_allocation_count{0};

// Total global operator-new calls in this process so far; diff across a region to count
// its allocations.
inline std::size_t AllocationCount() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

}  // namespace qnet_testing

void* operator new(std::size_t size) {
  qnet_testing::g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Over-aligned variants must be replaced too: the default align_val_t operators do NOT
// forward to the replaced operator new(size_t), so an alignas(>16) hot-path type would
// otherwise allocate without bumping the counter.
void* operator new(std::size_t size, std::align_val_t align) {
  qnet_testing::g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (size + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

// The nothrow forms (std::get_temporary_buffer, behind std::stable_partition and
// std::stable_sort, uses them) must be replaced as well: every block is released with
// std::free below, so every block must come from the counting operators above.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // QNET_TESTS_SUPPORT_COUNTING_ALLOCATOR_H_
