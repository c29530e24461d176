/**
 * @file
 * Proof that the unbuffered request path is heap-free once warm:
 * requests submitted to an EmmcDevice run through dispatch, the
 * distributor's page-group split, Ftl::writeGroup / Ftl::readUnits and
 * the flash array without a single operator new (alloc_counter.cc
 * counts them). Lives in the counting-allocator binary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "alloc_counter.hh"
#include "core/scheme.hh"
#include "emmc/device.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace {

using namespace emmcsim;

/**
 * Submit @p reqs in bursts of @p burst simultaneous arrivals, each
 * burst after the previous one drained, so requests both find the
 * device idle and queue behind (and pack with) each other. Arrival
 * times are restamped to the simulator clock.
 */
void
serve(sim::Simulator &s, emmc::EmmcDevice &device,
      std::vector<emmc::IoRequest> &reqs, std::size_t burst)
{
    for (std::size_t i = 0; i < reqs.size(); i += burst) {
        const sim::Time at = s.now() + sim::microseconds(50);
        for (std::size_t j = i; j < std::min(i + burst, reqs.size()); ++j) {
            emmc::IoRequest &r = reqs[j];
            r.arrival = at;
            s.schedule(at, [&device, &r] { device.submit(r); });
        }
        s.run();
    }
}

/** Erased blocks on every free list of the device. */
std::uint64_t
freeBlocks(const emmc::EmmcDevice &device)
{
    const flash::FlashArray &array = device.array();
    std::uint64_t free = 0;
    for (std::uint32_t pl = 0; pl < array.geometry().planeCount(); ++pl) {
        for (std::size_t k = 0; k < array.geometry().pools.size(); ++k)
            free += array.plane(pl).pool(k).freeBlockCount();
    }
    return free;
}

TEST(IoPathAllocation, UnbufferedReadsAndWritesAreHeapFreeAfterWarmup)
{
    for (const core::SchemeKind kind :
         {core::SchemeKind::HPS, core::SchemeKind::PS4}) {
        SCOPED_TRACE(core::schemeName(kind));
        sim::Simulator s;
        auto device = core::makeDevice(s, kind);
        ASSERT_FALSE(device->config().buffer.enabled);

        // Mixed sizes (odd ones split into 8KB + 4KB pages under HPS)
        // over a few MB, with reads covering both written and
        // never-written units (the pseudo-read path).
        sim::Rng rng(5);
        std::vector<emmc::IoRequest> reqs;
        for (std::uint64_t i = 0; i < 400; ++i) {
            emmc::IoRequest r;
            r.id = i;
            r.write = i % 3 != 0;
            const std::int64_t unit = rng.uniformInt(0, 2047);
            r.lbaSector = units::unitToLba(flash::Lpn{unit});
            r.sizeBytes = units::unitsToBytes(
                static_cast<std::uint32_t>(rng.uniformInt(1, 9)));
            reqs.push_back(r);
        }

        // Warm-up: map chunks, block slabs and every scratch buffer
        // grow to what these requests need. The measured pass must
        // open no new block (opening one attaches a page slab, an
        // allocation per 1024 programs by design, DESIGN.md §17) and
        // run no garbage collection; both are checked below.
        for (const std::size_t burst : {1, 24})
            serve(s, *device, reqs, burst);
        const std::uint64_t gc_before =
            device->ftl().gcStats().blockingRounds;
        const std::uint64_t packed_before =
            device->packingStats().packedCommands;
        const std::uint64_t free_before = freeBlocks(*device);

        const std::uint64_t before = emmcsim::test::heapAllocCount();
        for (const std::size_t burst : {1, 24})
            serve(s, *device, reqs, burst);
        const std::uint64_t after = emmcsim::test::heapAllocCount();

        EXPECT_EQ(after - before, 0u)
            << "the unbuffered request path allocated on the heap";
        EXPECT_EQ(device->ftl().gcStats().blockingRounds, gc_before);
        EXPECT_EQ(freeBlocks(*device), free_before);
        EXPECT_GT(device->packingStats().packedCommands, packed_before);
        EXPECT_EQ(device->stats().requests, 4 * reqs.size());
    }
}

} // namespace
