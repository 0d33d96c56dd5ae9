// Counting allocation probe for the tests and the micro benchmarks.
//
// Linking alloc_probe.cpp into a binary replaces its global operator
// new/delete with forwarders to malloc/free that count allocations while
// counting is on, so a zero- or constant-allocation contract is measured,
// not assumed.  The replacements live in their own translation unit, so no
// caller inlines their free() against a pointer from operator new (which
// GCC's -Wmismatched-new-delete reports).  They compose with ASan and TSan:
// the sanitizers' malloc interceptors still see every allocation.
#pragma once

#include <cstdint>

namespace sybiltd {

// Sets the count to zero.
void reset_allocation_count();
// Turns counting on or off; the count keeps its value while off.
void track_allocations(bool on);
// Allocations counted since the last reset.
std::uint64_t allocation_count();

// Allocations performed by `body` (a plain lambda; std::function would
// allocate).
template <typename Fn>
std::uint64_t count_allocations(Fn&& body) {
  reset_allocation_count();
  track_allocations(true);
  body();
  track_allocations(false);
  return allocation_count();
}

}  // namespace sybiltd
