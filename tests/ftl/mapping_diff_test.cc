/**
 * @file
 * Differential tests: the chunked PageMap and ChunkedTable against the
 * flat std::vector they replace. Seeded random op sequences (set,
 * clear, reset, save/load) drive both sides; every observable must
 * agree after every step.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "ftl/chunked_table.hh"
#include "ftl/mapping.hh"

using namespace emmcsim;
using namespace emmcsim::ftl;

namespace {

/** Chunk-straddling size: three full chunks plus a partial fourth. */
constexpr std::uint64_t kUnits = 3 * ChunkedTable<int>::kChunkEntries + 123;

MapEntry
randomEntry(std::mt19937_64 &rng)
{
    MapEntry e;
    e.planeLinear = static_cast<std::int32_t>(rng() % 8);
    e.pool = static_cast<std::uint16_t>(rng() % 2);
    e.unit = static_cast<std::uint16_t>(rng() % 2);
    e.ppn = flash::Ppn{rng() % 100000};
    return e;
}

/** Hot lpns cluster in two chunks so others stay untouched. */
flash::Lpn
randomLpn(std::mt19937_64 &rng)
{
    const std::uint64_t r = rng() % 10;
    std::uint64_t u;
    if (r < 6)
        u = rng() % 64;                        // chunk 0
    else if (r < 9)
        u = kUnits - 1 - rng() % 64;           // the partial last chunk
    else
        u = rng() % kUnits;                    // anywhere
    return flash::Lpn{static_cast<std::int64_t>(u)};
}

void
expectSame(const PageMap &m, const std::vector<MapEntry> &ref,
           std::uint64_t ref_count)
{
    ASSERT_EQ(m.logicalUnits(), ref.size());
    ASSERT_EQ(m.mappedCount(), ref_count);
    std::uint64_t visited_mapped = 0;
    m.forEachOwned([&](flash::Lpn lpn, const MapEntry &e) {
        ASSERT_EQ(e, ref[static_cast<std::size_t>(lpn.value())]);
        visited_mapped += e.mapped();
    });
    // Every mapped entry lives in an owned chunk.
    EXPECT_EQ(visited_mapped, ref_count);
    for (std::uint64_t u = 0; u < ref.size(); ++u) {
        const flash::Lpn lpn{static_cast<std::int64_t>(u)};
        ASSERT_EQ(m.lookup(lpn), ref[u]) << "lpn " << u;
        ASSERT_EQ(m.mapped(lpn), ref[u].mapped()) << "lpn " << u;
    }
}

PageMap
roundTrip(const PageMap &m)
{
    core::BinWriter w;
    m.save(w);
    PageMap fresh(m.logicalUnits());
    core::BinReader r(w.data());
    fresh.load(r);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
    core::BinWriter again;
    fresh.save(again);
    EXPECT_EQ(again.data(), w.data()) << "save -> load -> save drifted";
    return fresh;
}

} // namespace

TEST(PageMapDifferential, MatchesFlatTableUnderRandomOps)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        PageMap m(kUnits);
        std::vector<MapEntry> ref(kUnits);
        std::uint64_t ref_count = 0;

        for (int step = 0; step < 4000; ++step) {
            const std::uint64_t op = rng() % 100;
            const flash::Lpn lpn = randomLpn(rng);
            auto &slot = ref[static_cast<std::size_t>(lpn.value())];
            if (op < 60) {
                const MapEntry e = randomEntry(rng);
                ref_count += !slot.mapped();
                slot = e;
                m.set(lpn, e);
            } else if (op < 95) {
                ref_count -= slot.mapped();
                slot = MapEntry{};
                m.clear(lpn);
            } else if (op < 97) {
                ref.assign(kUnits, MapEntry{});
                ref_count = 0;
                m.reset();
                EXPECT_EQ(m.ownedChunks(), 0u);
            } else {
                m = roundTrip(m);
            }
            ASSERT_EQ(m.lookup(lpn), slot);
            ASSERT_EQ(m.mappedCount(), ref_count);
            if (step % 500 == 0)
                expectSame(m, ref, ref_count);
        }
        expectSame(m, ref, ref_count);
        // The random walk keeps chunks 1 and 2 mostly cold.
        EXPECT_LE(m.ownedChunks(), 4u);
    }
}

TEST(PageMapDifferential, ClearOnUntouchedChunkAllocatesNothing)
{
    PageMap m(kUnits);
    for (std::uint64_t u = 0; u < kUnits; u += 97)
        m.clear(flash::Lpn{static_cast<std::int64_t>(u)});
    EXPECT_EQ(m.ownedChunks(), 0u);
    EXPECT_EQ(m.mappedCount(), 0u);
}

TEST(PageMapDifferential, LoadRejectsMappedCountMismatch)
{
    PageMap m(kUnits);
    MapEntry e;
    e.planeLinear = 1;
    m.set(flash::Lpn{5}, e);
    core::BinWriter w;
    m.save(w);
    std::string image = w.data();
    // The stored count is the image's last field.
    image[image.size() - sizeof(std::uint64_t)] = 2;
    PageMap fresh(kUnits);
    core::BinReader r(image);
    fresh.load(r);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(fresh.mappedCount(), 1u) << "count is recounted, not trusted";
}

TEST(PageMapDifferential, LoadRejectsBadChunkDirectory)
{
    PageMap m(kUnits);
    MapEntry e;
    e.planeLinear = 0;
    m.set(flash::Lpn{1}, e);
    m.set(flash::Lpn{static_cast<std::int64_t>(kUnits - 1)}, e);
    core::BinWriter w;
    m.save(w);

    // Layout: u64 size, u64 chunk count, then (u64 slot, chunk) pairs.
    const std::size_t first_slot = 2 * sizeof(std::uint64_t);
    {
        std::string image = w.data();
        image[first_slot] = 9; // slot beyond the directory
        PageMap fresh(kUnits);
        core::BinReader r(image);
        fresh.load(r);
        EXPECT_FALSE(r.ok());
    }
    {
        std::string image = w.data();
        image[sizeof(std::uint64_t)] = 99; // more chunks than the bytes
        PageMap fresh(kUnits);
        core::BinReader r(image);
        fresh.load(r);
        EXPECT_FALSE(r.ok());
    }
    {
        PageMap other(kUnits + 1); // a different device
        core::BinReader r(w.data());
        other.load(r);
        EXPECT_FALSE(r.ok());
    }
}

TEST(ChunkedTable, MatchesFlatVectorWithMutVisit)
{
    std::mt19937_64 rng(11);
    const std::uint64_t n = 2 * ChunkedTable<std::uint64_t>::kChunkEntries + 7;
    ChunkedTable<std::uint64_t> t(n);
    std::vector<std::uint64_t> ref(n, 0);
    for (int step = 0; step < 3000; ++step) {
        const std::uint64_t i = rng() % n;
        const std::uint64_t v = rng() % 1000;
        t.mut(i) = v;
        ref[i] = v;
        if (step % 700 == 0) {
            // Zero every entry above a threshold through the visitor.
            t.forEachOwnedMut([](std::uint64_t, std::uint64_t &x) {
                if (x > 500)
                    x = 0;
            });
            for (std::uint64_t &x : ref)
                if (x > 500)
                    x = 0;
        }
    }
    std::uint64_t last = 0;
    bool first = true;
    t.forEachOwned([&](std::uint64_t i, std::uint64_t x) {
        EXPECT_TRUE(first || i > last) << "visit order must ascend";
        EXPECT_LT(i, n) << "visit past the table size";
        first = false;
        last = i;
        EXPECT_EQ(x, ref[i]);
    });
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(t[i], ref[i]) << "entry " << i;
}
