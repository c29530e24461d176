/**
 * @file
 * Proof that the steady-state event path performs zero heap
 * allocations: global operator new is replaced with a counting
 * implementation (alloc_counter.cc), and a warmed-up schedule/pop
 * cycle must not bump the counter. Kept in its own test binary
 * because the replacement operators apply to every translation unit
 * they are linked into.
 */

#include <gtest/gtest.h>

#include "alloc_counter.hh"
#include "sim/event.hh"
#include "sim/simulator.hh"

namespace {

using namespace emmcsim::sim;

TEST(EventCoreAllocation, SteadyStateScheduleRunIsHeapFree)
{
    constexpr int kBatch = 1024;
    EventQueue q;
    std::uint64_t sink = 0;
    Time base = 0;

    auto fillDrain = [&] {
        for (int i = 0; i < kBatch; ++i)
            q.schedule(base + i, [&sink] { ++sink; });
        Time t;
        EventAction a;
        while (q.pop(t, a))
            a();
        base += kBatch;
    };

    // Warm-up: grow the arena, freelist, and heap vector to capacity.
    fillDrain();
    fillDrain();
    ASSERT_EQ(q.arenaSlots(), static_cast<std::size_t>(kBatch));

    const std::uint64_t before = emmcsim::test::heapAllocCount();
    fillDrain();
    const std::uint64_t after = emmcsim::test::heapAllocCount();

    EXPECT_EQ(after - before, 0u)
        << "steady-state schedule/pop allocated on the heap";
    EXPECT_EQ(sink, static_cast<std::uint64_t>(3 * kBatch));
}

TEST(EventCoreAllocation, SteadyStateCancelIsHeapFree)
{
    constexpr int kBatch = 512;
    EventQueue q;
    Time base = 0;
    std::vector<EventId> ids(static_cast<std::size_t>(kBatch));

    auto churn = [&] {
        for (int i = 0; i < kBatch; ++i)
            ids[static_cast<std::size_t>(i)] =
                q.schedule(base + i, [] {});
        for (int i = 0; i < kBatch; i += 2)
            q.cancel(ids[static_cast<std::size_t>(i)]);
        Time t;
        EventAction a;
        while (q.pop(t, a))
            a();
        base += kBatch;
    };

    churn();
    churn();
    const std::uint64_t before = emmcsim::test::heapAllocCount();
    churn();
    const std::uint64_t after = emmcsim::test::heapAllocCount();
    EXPECT_EQ(after - before, 0u)
        << "steady-state cancel/compact path allocated on the heap";
}

/**
 * Run two warm-up rounds of @p load on a fresh simulator, then require
 * a third round to allocate nothing. @p load schedules one round of
 * events at or after the simulator's clock; run() drains it.
 */
template <typename Load>
void
expectSimulatorLoopHeapFree(const char *what, Load load)
{
    Simulator s;
    auto round = [&] {
        load(s);
        s.run();
    };
    round();
    round();
    const std::uint64_t before = emmcsim::test::heapAllocCount();
    round();
    const std::uint64_t after = emmcsim::test::heapAllocCount();
    EXPECT_EQ(after - before, 0u)
        << "simulator event loop allocated on the heap (" << what << ")";
}

TEST(EventCoreAllocation, SimulatorLoopIsHeapFreeAfterWarmup)
{
    std::uint64_t sink = 0;

    // One event per tick on consecutive ticks.
    expectSimulatorLoopHeapFree("consecutive ticks", [&](Simulator &s) {
        const Time base = s.now();
        for (int i = 0; i < 256; ++i)
            s.schedule(base + i, [&sink] { ++sink; });
    });

    // Device-shaped clustered load: ties of 8 on four fixed NAND
    // latencies, 1024 events deep.
    constexpr Time kLat[4] = {160'000, 244'000, 1'385'000, 3'800'000};
    expectSimulatorLoopHeapFree("clustered latencies", [&](Simulator &s) {
        const Time base = s.now();
        for (int i = 0; i < 1024; ++i)
            s.schedule(base + kLat[(i / 8) & 3] +
                           static_cast<Time>(i / 8) * 257,
                       [&sink] { ++sink; });
    });
}

} // namespace
