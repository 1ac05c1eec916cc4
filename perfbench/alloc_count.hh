/**
 * @file
 * Process-wide count of operator new calls, for sim.allocs_per_event.
 * alloc_count.cc replaces the global operator new/delete of the
 * benchmark program; it lives in its own file so the compiler never
 * sees a replaced operator delete inlined next to a new-expression.
 */

#ifndef RELIEF_PERFBENCH_ALLOC_COUNT_HH
#define RELIEF_PERFBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace relief
{

/** Allocations so far. The benchmark is single-threaded. */
std::uint64_t allocationCount();

} // namespace relief

#endif // RELIEF_PERFBENCH_ALLOC_COUNT_HH
