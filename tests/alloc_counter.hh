/**
 * @file
 * Heap-allocation counter for allocation-free path tests.
 * alloc_counter.cc replaces global operator new with a counting
 * version, so a binary that links it counts every allocation made by
 * any translation unit in it: link it only into dedicated binaries.
 */

#ifndef EMMCSIM_TESTS_ALLOC_COUNTER_HH
#define EMMCSIM_TESTS_ALLOC_COUNTER_HH

#include <cstdint>

namespace emmcsim::test {

/** Heap allocations made so far through operator new / new[]. */
std::uint64_t heapAllocCount();

} // namespace emmcsim::test

#endif // EMMCSIM_TESTS_ALLOC_COUNTER_HH
