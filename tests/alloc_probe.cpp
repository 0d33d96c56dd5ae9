#include "alloc_probe.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_alloc_tracking{false};
}  // namespace

namespace sybiltd {

void reset_allocation_count() {
  g_alloc_count.store(0, std::memory_order_relaxed);
}

void track_allocations(bool on) {
  g_alloc_tracking.store(on, std::memory_order_relaxed);
}

std::uint64_t allocation_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace sybiltd

void* operator new(std::size_t n) {
  if (g_alloc_tracking.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
