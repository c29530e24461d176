/**
 * @file
 * Differential tests: BlockPool (per-block page slabs) against a flat-
 * array reference that keeps every page's state in one vector, the way
 * the pool did before slabs. Seeded random op sequences drive both;
 * every public accessor must agree after every step, save -> load ->
 * save must be byte-identical, and a block must own a slab exactly
 * while it is neither free nor retired.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "flash/pool.hh"

using namespace emmcsim;
using namespace emmcsim::flash;

namespace {

/** The simple version: flat per-page arrays over the whole pool. */
class FlatPool
{
  public:
    FlatPool(std::uint32_t upp, std::uint32_t blocks, std::uint32_t ppb)
        : upp_(upp), blocks_(blocks), ppb_(ppb),
          lpns(std::size_t{blocks} * ppb * upp, kNoLpn),
          valid(std::size_t{blocks} * ppb, 0),
          seq(std::size_t{blocks} * ppb, 0), writePtr(blocks, 0),
          blockValid(blocks, 0), eraseCnt(blocks, 0),
          lastWriteSeq(blocks, 0), isFree(blocks, true),
          suspect(blocks, false), retired(blocks, false),
          freeCount(blocks)
    {
    }

    bool
    hasFreePage() const
    {
        return (active >= 0 && writePtr[active] < ppb_) || freeCount > 0;
    }

    std::uint64_t
    allocatePage()
    {
        if (active < 0 || writePtr[active] >= ppb_) {
            std::uint32_t best = 0;
            std::uint32_t best_erase =
                std::numeric_limits<std::uint32_t>::max();
            for (std::uint32_t b = 0; b < blocks_; ++b) {
                if (isFree[b] && eraseCnt[b] < best_erase) {
                    best = b;
                    best_erase = eraseCnt[b];
                }
            }
            isFree[best] = false;
            --freeCount;
            active = static_cast<std::int32_t>(best);
        }
        const std::uint32_t page = writePtr[active]++;
        ++programmed;
        lastWriteSeq[active] = ++allocSeq;
        return std::uint64_t{static_cast<std::uint32_t>(active)} * ppb_ +
               page;
    }

    void
    setUnit(std::uint64_t p, std::uint32_t s, Lpn lpn)
    {
        lpns[p * upp_ + s] = lpn;
        valid[p] |= static_cast<std::uint8_t>(1u << s);
        ++blockValid[p / ppb_];
        ++validUnits;
    }

    void
    invalidateUnit(std::uint64_t p, std::uint32_t s)
    {
        valid[p] &= static_cast<std::uint8_t>(~(1u << s));
        --blockValid[p / ppb_];
        --validUnits;
    }

    void
    wipe(std::uint32_t b)
    {
        for (std::uint64_t p = std::uint64_t{b} * ppb_;
             p < std::uint64_t{b + 1} * ppb_; ++p) {
            for (std::uint32_t s = 0; s < upp_; ++s)
                lpns[p * upp_ + s] = kNoLpn;
            valid[p] = 0;
            seq[p] = 0;
        }
    }

    void
    erase(std::uint32_t b)
    {
        wipe(b);
        writePtr[b] = 0;
        ++eraseCnt[b];
        ++totalErases;
        isFree[b] = true;
        ++freeCount;
    }

    void
    retire(std::uint32_t b)
    {
        wipe(b);
        writePtr[b] = ppb_;
        suspect[b] = false;
        retired[b] = true;
        ++retiredCount;
    }

    void
    seal(std::uint32_t b)
    {
        writePtr[b] = ppb_;
        if (active == static_cast<std::int32_t>(b))
            active = -1;
    }

    void
    tear(std::uint64_t p)
    {
        const std::uint32_t live =
            static_cast<std::uint32_t>(std::popcount(valid[p]));
        blockValid[p / ppb_] -= live;
        validUnits -= live;
        for (std::uint32_t s = 0; s < upp_; ++s)
            lpns[p * upp_ + s] = kNoLpn;
        valid[p] = 0;
        seq[p] = 0;
        ++torn;
    }

    void
    beginRecoveryScan()
    {
        std::fill(valid.begin(), valid.end(), std::uint8_t{0});
        std::fill(blockValid.begin(), blockValid.end(), 0u);
        validUnits = 0;
    }

    std::uint32_t upp_, blocks_, ppb_;
    std::vector<Lpn> lpns;
    std::vector<std::uint8_t> valid;
    std::vector<std::uint64_t> seq;
    std::vector<std::uint32_t> writePtr, blockValid, eraseCnt;
    std::vector<std::uint64_t> lastWriteSeq;
    std::uint64_t allocSeq = 0;
    std::vector<bool> isFree, suspect, retired;
    std::uint32_t freeCount;
    std::uint32_t retiredCount = 0;
    std::int32_t active = -1;
    std::uint64_t totalErases = 0, programmed = 0, validUnits = 0,
                  torn = 0;
};

void
expectSame(const BlockPool &p, const FlatPool &f)
{
    ASSERT_EQ(p.hasFreePage(), f.hasFreePage());
    ASSERT_EQ(p.freeBlockCount(), f.freeCount);
    ASSERT_EQ(p.activeBlock(), f.active);
    ASSERT_EQ(p.totalErases(), f.totalErases);
    ASSERT_EQ(p.totalProgrammedPages(), f.programmed);
    ASSERT_EQ(p.validUnitCount(), f.validUnits);
    ASSERT_EQ(p.tornPages(), f.torn);
    ASSERT_EQ(p.retiredBlockCount(), f.retiredCount);
    const auto [mn, mx] =
        std::minmax_element(f.eraseCnt.begin(), f.eraseCnt.end());
    ASSERT_EQ(p.eraseSpread(), *mx - *mn);
    std::uint64_t free_pages =
        std::uint64_t{f.freeCount} * f.ppb_;
    if (f.active >= 0)
        free_pages += f.ppb_ - f.writePtr[f.active];
    ASSERT_EQ(p.freePageCount(), free_pages);

    for (std::uint32_t b = 0; b < f.blocks_; ++b) {
        const BlockId bid{b};
        SCOPED_TRACE("block " + std::to_string(b));
        ASSERT_EQ(p.validUnitsInBlock(bid), f.blockValid[b]);
        ASSERT_EQ(p.writtenPages(bid), f.writePtr[b]);
        ASSERT_EQ(p.blockFull(bid), f.writePtr[b] >= f.ppb_);
        ASSERT_EQ(p.eraseCount(bid), f.eraseCnt[b]);
        ASSERT_EQ(p.blockAge(bid), f.allocSeq - f.lastWriteSeq[b]);
        ASSERT_EQ(p.blockFree(bid), f.isFree[b]);
        ASSERT_EQ(p.blockSuspect(bid), f.suspect[b]);
        ASSERT_EQ(p.blockRetired(bid), f.retired[b]);
        ASSERT_EQ(p.blockHasSlab(bid), !f.isFree[b] && !f.retired[b]);
    }
    for (std::uint64_t pg = 0; pg < p.pageCount(); ++pg) {
        const Ppn ppn{pg};
        ASSERT_EQ(p.pageSeq(ppn), f.seq[pg]) << "page " << pg;
        ASSERT_EQ(p.validUnitsInPage(ppn),
                  static_cast<std::uint32_t>(std::popcount(f.valid[pg])))
            << "page " << pg;
        for (std::uint32_t s = 0; s < f.upp_; ++s) {
            ASSERT_EQ(p.lpnAt(ppn, s), f.lpns[pg * f.upp_ + s])
                << "page " << pg << " slot " << s;
            ASSERT_EQ(p.unitValid(ppn, s), ((f.valid[pg] >> s) & 1u) != 0)
                << "page " << pg << " slot " << s;
        }
    }
}

/** save -> load -> save through a fresh pool; returns the reloaded one. */
BlockPool
roundTrip(const BlockPool &p, const PoolConfig &cfg)
{
    core::BinWriter w;
    p.save(w);
    BlockPool fresh(cfg, p.pagesPerBlock());
    core::BinReader r(w.data());
    fresh.load(r);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
    core::BinWriter again;
    fresh.save(again);
    EXPECT_EQ(again.data(), w.data()) << "save -> load -> save drifted";
    return fresh;
}

/** Blocks matching @p pred, for picking an op's target. */
template <typename Pred>
std::vector<std::uint32_t>
blocksWhere(const FlatPool &f, Pred pred)
{
    std::vector<std::uint32_t> out;
    for (std::uint32_t b = 0; b < f.blocks_; ++b)
        if (pred(b))
            out.push_back(b);
    return out;
}

void
runDifferential(std::uint32_t page_bytes, std::uint64_t seed)
{
    const PoolConfig cfg{page_bytes, 6};
    constexpr std::uint32_t kPpb = 8;
    BlockPool pool(cfg, kPpb);
    FlatPool flat(cfg.unitsPerPage(), cfg.blocksPerPlane, kPpb);
    std::mt19937_64 rng(seed);
    std::int64_t next_lpn = 0;
    std::uint64_t next_seq = 1;

    auto pick = [&rng](const std::vector<std::uint32_t> &v) {
        return v[rng() % v.size()];
    };
    // Live (page, slot) pairs.
    auto live_slots = [&] {
        std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
        for (std::uint64_t p = 0; p < flat.valid.size(); ++p)
            for (std::uint32_t s = 0; s < flat.upp_; ++s)
                if ((flat.valid[p] >> s) & 1u)
                    out.emplace_back(p, s);
        return out;
    };

    for (int step = 0; step < 3000; ++step) {
        const std::uint64_t op = rng() % 100;
        if (op < 30) {
            // Allocate a page and program it: lpns, then the OOB stamp.
            if (!flat.hasFreePage())
                continue;
            const std::uint64_t p = flat.allocatePage();
            ASSERT_EQ(pool.allocatePage(), Ppn{p});
            for (std::uint32_t s = 0; s < flat.upp_; ++s) {
                if (rng() % 4 == 0)
                    continue; // a padded (never written) slot
                const Lpn lpn{next_lpn++};
                flat.setUnit(p, s, lpn);
                pool.setUnit(Ppn{p}, s, lpn);
            }
            flat.seq[p] = next_seq;
            pool.stampPageSeq(Ppn{p}, next_seq++);
        } else if (op < 55) {
            const auto live = live_slots();
            if (live.empty())
                continue;
            const auto [p, s] = live[rng() % live.size()];
            flat.invalidateUnit(p, s);
            pool.invalidateUnit(Ppn{p}, s);
        } else if (op < 70) {
            // Erase a drained, inactive block (GC's end state).
            const auto v = blocksWhere(flat, [&](std::uint32_t b) {
                return !flat.isFree[b] && !flat.retired[b] &&
                       flat.blockValid[b] == 0 &&
                       flat.active != static_cast<std::int32_t>(b);
            });
            if (v.empty())
                continue;
            const std::uint32_t b = pick(v);
            flat.erase(b);
            pool.eraseBlock(BlockId{b});
        } else if (op < 73) {
            // Suspect then retire a drained block, keeping >= 2 usable.
            const auto v = blocksWhere(flat, [&](std::uint32_t b) {
                return !flat.isFree[b] && !flat.retired[b] &&
                       flat.blockValid[b] == 0 &&
                       flat.active != static_cast<std::int32_t>(b);
            });
            if (v.empty() || flat.retiredCount + 3 > flat.blocks_)
                continue;
            const std::uint32_t b = pick(v);
            flat.suspect[b] = true;
            pool.markSuspect(BlockId{b});
            ASSERT_TRUE(pool.blockSuspect(BlockId{b}));
            flat.retire(b);
            pool.retireBlock(BlockId{b});
        } else if (op < 78) {
            const auto v = blocksWhere(flat, [&](std::uint32_t b) {
                return !flat.isFree[b] && !flat.retired[b];
            });
            if (v.empty())
                continue;
            const std::uint32_t b = pick(v);
            flat.seal(b);
            pool.sealBlock(BlockId{b});
        } else if (op < 83) {
            // Tear a programmed page (torn by power loss).
            const auto v = blocksWhere(flat, [&](std::uint32_t b) {
                return !flat.isFree[b] && !flat.retired[b] &&
                       flat.writePtr[b] > 0;
            });
            if (v.empty())
                continue;
            const std::uint32_t b = pick(v);
            const std::uint64_t p =
                std::uint64_t{b} * kPpb + rng() % flat.writePtr[b];
            flat.tear(p);
            pool.tearPage(Ppn{p});
        } else if (op < 86) {
            // Recovery: drop validity, revalidate a random subset of
            // the written slots, seal the open block.
            flat.beginRecoveryScan();
            pool.beginRecoveryScan();
            for (std::uint64_t p = 0; p < pool.pageCount(); ++p) {
                for (std::uint32_t s = 0; s < flat.upp_; ++s) {
                    if (flat.lpns[p * flat.upp_ + s] == kNoLpn ||
                        rng() % 2 == 0)
                        continue;
                    flat.valid[p] |= static_cast<std::uint8_t>(1u << s);
                    ++flat.blockValid[p / kPpb];
                    ++flat.validUnits;
                    pool.revalidateUnit(Ppn{p}, s);
                }
            }
            if (flat.active >= 0)
                flat.seal(static_cast<std::uint32_t>(flat.active));
            pool.sealOpenBlocks();
        } else if (op < 92) {
            pool = roundTrip(pool, cfg);
        } else {
            // A program failure flags a block suspect; it stays
            // readable (and slabbed) until scrubbed and retired.
            const auto v = blocksWhere(flat, [&](std::uint32_t b) {
                return !flat.isFree[b] && !flat.retired[b];
            });
            if (v.empty())
                continue;
            const std::uint32_t b = pick(v);
            flat.suspect[b] = true;
            pool.markSuspect(BlockId{b});
        }
        ASSERT_NO_FATAL_FAILURE(expectSame(pool, flat))
            << "after step " << step << " (op " << op << ")";
    }
    EXPECT_GT(pool.totalErases(), 0u) << "the walk should recycle blocks";
}

} // namespace

TEST(BlockPoolDifferential, MatchesFlatArrays4K)
{
    for (std::uint64_t seed : {1u, 2u, 3u})
        runDifferential(4096, seed);
}

TEST(BlockPoolDifferential, MatchesFlatArrays8K)
{
    for (std::uint64_t seed : {4u, 5u, 6u})
        runDifferential(8192, seed);
}

TEST(BlockPoolDeath, NonPowerOfTwoPagesPerBlockPanics)
{
    EXPECT_DEATH(BlockPool(PoolConfig{4096, 4}, 6), "power of two");
}

namespace {

/** A pool with an open, partly written block and one erased block. */
BlockPool
usedPool(const PoolConfig &cfg)
{
    BlockPool p(cfg, 4);
    for (int i = 0; i < 6; ++i) {
        const Ppn ppn = p.allocatePage();
        p.setUnit(ppn, 0, Lpn{i});
        p.stampPageSeq(ppn, static_cast<std::uint64_t>(i + 1));
    }
    return p;
}

/** Load @p image into a fresh pool; @return the reader's verdict. */
bool
loads(const std::string &image, const PoolConfig &cfg)
{
    BlockPool fresh(cfg, 4);
    core::BinReader r(image);
    fresh.load(r);
    return r.ok();
}

/** Overwrite the little-endian u32 at @p offset. */
std::string
patched(std::string image, std::size_t offset, std::uint32_t v)
{
    std::memcpy(image.data() + offset, &v, sizeof v);
    return image;
}

// Image scalars sit at fixed offsets after the 16-byte shape header.
constexpr std::size_t kFreeCountAt = 16;
constexpr std::size_t kActiveAt = 24;

} // namespace

TEST(BlockPoolSnapshot, CleanImageLoads)
{
    const PoolConfig cfg{4096, 4};
    core::BinWriter w;
    usedPool(cfg).save(w);
    EXPECT_TRUE(loads(w.data(), cfg));
}

TEST(BlockPoolSnapshot, LoadRejectsOutOfRangeActiveBlock)
{
    const PoolConfig cfg{4096, 4};
    BlockPool p = usedPool(cfg);
    ASSERT_EQ(p.activeBlock(), 1);
    core::BinWriter w;
    p.save(w);
    std::int32_t stored = 0;
    std::memcpy(&stored, w.data().data() + kActiveAt, sizeof stored);
    ASSERT_EQ(stored, 1) << "image layout moved";

    // Past the last block: hasFreePage/allocatePage would index
    // writePtr_[active_] out of bounds.
    EXPECT_FALSE(loads(patched(w.data(), kActiveAt, 4), cfg));
    EXPECT_FALSE(loads(patched(w.data(), kActiveAt, 0x7fffffff), cfg));
    // Negative other than the "none open" -1.
    EXPECT_FALSE(loads(patched(w.data(), kActiveAt, 0xfffffffe), cfg));
    // A free block cannot be the active one.
    EXPECT_FALSE(loads(patched(w.data(), kActiveAt, 3), cfg));
    // -1 (no open block) is legal.
    EXPECT_TRUE(loads(patched(w.data(), kActiveAt, 0xffffffff), cfg));
}

TEST(BlockPoolSnapshot, LoadRejectsCounterFlagMismatch)
{
    const PoolConfig cfg{4096, 4};
    core::BinWriter w;
    usedPool(cfg).save(w);
    EXPECT_FALSE(loads(patched(w.data(), kFreeCountAt, 3), cfg));
    EXPECT_FALSE(loads(patched(w.data(), kFreeCountAt + 4, 1), cfg));
}

TEST(BlockPoolSnapshot, LoadRejectsTruncation)
{
    const PoolConfig cfg{4096, 4};
    core::BinWriter w;
    usedPool(cfg).save(w);
    for (std::size_t cut : {std::size_t{10}, w.data().size() / 2,
                            w.data().size() - 1})
        EXPECT_FALSE(loads(w.data().substr(0, cut), cfg)) << cut;
}
