/**
 * @file
 * Differential test of Ftl::readUnits against the read path it
 * replaced. The reference below groups mapped units with a per-call
 * std::unordered_map and builds its own pseudo-read split on every
 * call; the FTL now reuses member scratch, checks the previous unit's
 * page first and falls back to an open-addressing index. Both must
 * issue the same flash reads in the same order (the order feeds the
 * fault injector's RNG) and return the same ReadResult.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "core/hps.hh"
#include "fault/injector.hh"
#include "ftl/ftl.hh"
#include "sim/random.hh"

using namespace emmcsim;
using namespace emmcsim::ftl;

namespace {

constexpr std::uint32_t kPool4k = 0;
constexpr std::uint32_t kPool8k = 1;

/**
 * The pre-scratch Ftl::readUnits, rebuilt on the FTL's public API. It
 * updates no FTL counters; everything it returns or issues to the
 * array is what the old code did.
 */
ReadResult
referenceRead(Ftl &ftl, const RequestDistributor *pseudo_dist,
              flash::Lpn start, std::uint32_t n, sim::Time earliest)
{
    if (n == 0)
        return ReadResult{earliest, 0, {}};
    flash::FlashArray &array = ftl.array();
    const auto &geom = array.geometry();
    sim::Time done = earliest;
    std::uint32_t uncorrectable = 0;

    FlashBreakdown chain;
    auto charge = [&](const flash::OpResult &res) {
        if (res.done <= done)
            return;
        done = res.done;
        chain = FlashBreakdown{};
        chain.nandWait = res.start - earliest;
        chain.nandCell = res.cellTime - res.retryTime;
        chain.retry = res.retryTime;
        chain.busWait =
            (res.done - res.busTime) - (res.start + res.cellTime);
        chain.busXfer = res.busTime;
    };

    auto read_pseudo = [&](std::uint32_t pool, flash::Lpn first_lpn,
                           std::uint32_t unit_count) {
        const std::uint32_t upp = geom.pools[pool].unitsPerPage();
        const std::uint32_t ppb = geom.poolPagesPerBlock(pool);
        const std::uint64_t pool_pages =
            static_cast<std::uint64_t>(geom.pools[pool].blocksPerPlane) *
            ppb;
        const std::uint64_t pseudo =
            static_cast<std::uint64_t>(first_lpn.value()) / upp;
        const std::uint32_t dies = geom.dieCount();
        const auto die = static_cast<std::uint32_t>(pseudo % dies);
        const auto plane_in_die = static_cast<std::uint32_t>(
            (pseudo / dies) % geom.planesPerDie);
        flash::PageAddr a = flash::addrFromPlaneLinear(
            geom, die * geom.planesPerDie + plane_in_die);
        a.pool = pool;
        const flash::Ppn ppn{pseudo % pool_pages};
        a.block = units::pageToBlock(ppn, ppb).value();
        a.page = units::pageIndexInBlock(ppn, ppb);
        flash::OpResult res =
            array.read(a, earliest, units::unitsToBytes(unit_count));
        if (res.status == flash::OpStatus::Uncorrectable)
            ++uncorrectable;
        charge(res);
    };

    std::vector<PageGroup> pseudo_groups;
    auto read_unmapped_run = [&](flash::Lpn run_start,
                                 std::uint32_t run_len) {
        if (pseudo_dist != nullptr) {
            pseudo_groups.clear();
            pseudo_dist->splitWrite(run_start, run_len, pseudo_groups);
            for (const PageGroup &g : pseudo_groups) {
                read_pseudo(g.pool, g.lpns.front(),
                            static_cast<std::uint32_t>(g.lpns.size()));
            }
            return;
        }
        const std::uint32_t pool = ftl.config().defaultReadPool;
        const std::uint32_t upp = geom.pools[pool].unitsPerPage();
        for (std::uint32_t i = 0; i < run_len;) {
            const std::uint32_t take = std::min(upp, run_len - i);
            read_pseudo(pool, run_start + i, take);
            i += take;
        }
    };

    struct Group
    {
        flash::PageAddr addr;
        std::uint32_t units = 0;
    };
    std::vector<Group> groups;
    std::unordered_map<std::uint64_t, std::size_t> group_index;
    flash::Lpn run_start{0};
    std::uint32_t run_len = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        const flash::Lpn lpn = start + i;
        const MapEntry &e = ftl.map().lookup(lpn);
        if (!e.mapped()) {
            if (run_len == 0)
                run_start = lpn;
            ++run_len;
            continue;
        }
        if (run_len > 0) {
            read_unmapped_run(run_start, run_len);
            run_len = 0;
        }
        const auto plane = static_cast<std::uint32_t>(e.planeLinear);
        const std::uint64_t key =
            (static_cast<std::uint64_t>(plane) << 40) ^
            (static_cast<std::uint64_t>(e.pool) << 36) ^ e.ppn.value();
        auto [it, fresh] = group_index.try_emplace(key, groups.size());
        if (fresh) {
            flash::PageAddr a = flash::addrFromPlaneLinear(geom, plane);
            a.pool = e.pool;
            const std::uint32_t eppb = geom.poolPagesPerBlock(e.pool);
            a.block = units::pageToBlock(e.ppn, eppb).value();
            a.page = units::pageIndexInBlock(e.ppn, eppb);
            groups.push_back(Group{a, 0});
        }
        ++groups[it->second].units;
    }
    if (run_len > 0)
        read_unmapped_run(run_start, run_len);
    for (const Group &g : groups) {
        flash::OpResult res =
            array.read(g.addr, earliest, units::unitsToBytes(g.units));
        if (res.status == flash::OpStatus::Uncorrectable)
            ++uncorrectable;
        charge(res);
    }
    return ReadResult{done, uncorrectable, chain};
}

/** One flash operation as the array's op hook saw it. */
struct Op
{
    flash::OpKind kind;
    flash::PageAddr addr;
    flash::OpResult res;
};

/** An HPS-shaped FTL (4KB + 8KB pools) with a fault injector. */
struct Rig
{
    flash::Geometry geom;
    flash::Timing timing;
    fault::FaultInjector injector;
    flash::FlashArray array;
    Ftl ftl;
    core::HpsDistributor dist{kPool4k, kPool8k};
    std::vector<Op> ops;

    Rig(bool pseudo, double rber)
        : geom(makeGeom()),
          timing(makeTiming()),
          injector(makeFault(rber)),
          array(geom, timing, true),
          ftl(array, FtlConfig{})
    {
        if (injector.enabled())
            array.attachFaultInjector(&injector);
        if (pseudo)
            ftl.setPseudoReadDistributor(&dist);
        array.setOpHook([this](flash::OpKind kind,
                               const flash::PageAddr &addr,
                               const flash::OpResult &res) {
            ops.push_back({kind, addr, res});
        });
    }

    static flash::Geometry
    makeGeom()
    {
        flash::Geometry g;
        g.channels = 2;
        g.chipsPerChannel = 1;
        g.diesPerChip = 2;
        g.planesPerDie = 2;
        g.pagesPerBlock = 16;
        g.pools = {{4096, 24}, {8192, 24}};
        return g;
    }

    static flash::Timing
    makeTiming()
    {
        flash::Timing t;
        t.pools = {flash::Timing::page4k(), flash::Timing::page8k()};
        return t;
    }

    static fault::FaultConfig
    makeFault(double rber)
    {
        fault::FaultConfig f;
        f.enabled = rber > 0.0;
        f.seed = 11;
        f.baseRber = rber;
        f.readRetryLevels = 2;
        return f;
    }
};

void
expectSameOps(const std::vector<Op> &a, const std::vector<Op> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("flash op " + std::to_string(i));
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].res.start, b[i].res.start);
        EXPECT_EQ(a[i].res.done, b[i].res.done);
        EXPECT_EQ(a[i].res.status, b[i].res.status);
        EXPECT_EQ(a[i].res.retries, b[i].res.retries);
        EXPECT_EQ(a[i].res.busTime, b[i].res.busTime);
        EXPECT_EQ(a[i].res.cellTime, b[i].res.cellTime);
        EXPECT_EQ(a[i].res.retryTime, b[i].res.retryTime);
    }
}

void
expectSameResult(const ReadResult &a, const ReadResult &b)
{
    EXPECT_EQ(a.done, b.done);
    EXPECT_EQ(a.uncorrectablePages, b.uncorrectablePages);
    EXPECT_EQ(a.chain.gcStall, b.chain.gcStall);
    EXPECT_EQ(a.chain.busWait, b.chain.busWait);
    EXPECT_EQ(a.chain.busXfer, b.chain.busXfer);
    EXPECT_EQ(a.chain.nandWait, b.chain.nandWait);
    EXPECT_EQ(a.chain.nandCell, b.chain.nandCell);
    EXPECT_EQ(a.chain.retry, b.chain.retry);
    EXPECT_EQ(a.chain.reloc, b.chain.reloc);
}

/**
 * Lay out data the grouping has to work for, identically on both
 * rigs: 8KB pages whose units are stored out of order or are not even
 * adjacent, HPS splits of random runs, and holes left unmapped.
 */
void
writeScatteredLayout(Rig &rig, sim::Rng &rng, std::int64_t span,
                     sim::Time &t)
{
    std::vector<PageGroup> groups;
    for (int i = 0; i < 400; ++i) {
        const auto a = static_cast<std::int64_t>(rng.uniformInt(0, span - 1));
        switch (rng.uniformInt(0, 2)) {
          case 0: // one 8KB page holding a+1 then a
            t = rig.ftl
                    .writeGroup(kPool8k, {flash::Lpn{a + 1}, flash::Lpn{a}},
                                t)
                    .done;
            break;
          case 1: { // one 8KB page holding two units far apart
            const auto b =
                static_cast<std::int64_t>(rng.uniformInt(0, span - 1));
            if (b != a) {
                t = rig.ftl
                        .writeGroup(kPool8k,
                                    {flash::Lpn{b}, flash::Lpn{a}}, t)
                        .done;
            }
            break;
          }
          default: { // an HPS split of a short run
            groups.clear();
            rig.dist.splitWrite(
                flash::Lpn{a},
                static_cast<std::uint32_t>(rng.uniformInt(1, 7)), groups);
            for (const PageGroup &g : groups)
                t = rig.ftl.writeGroup(g.pool, g.lpns, t).done;
            break;
          }
        }
    }
}

void
runDiff(bool pseudo, double rber)
{
    // The layout stays within a slice of the logical space, so reads
    // straddle mapped pages and never-written holes.
    constexpr std::int64_t kSpan = 600;
    Rig fresh(pseudo, rber);
    Rig ref(pseudo, rber);
    sim::Rng layout_a(7);
    sim::Rng layout_b(7);
    sim::Time ta = 0;
    sim::Time tb = 0;
    writeScatteredLayout(fresh, layout_a, kSpan, ta);
    writeScatteredLayout(ref, layout_b, kSpan, tb);
    ASSERT_EQ(ta, tb);

    sim::Rng rng(99);
    sim::Time t = ta;
    const RequestDistributor *pseudo_dist = pseudo ? &ref.dist : nullptr;
    for (int i = 0; i < 600; ++i) {
        const auto first = static_cast<std::int64_t>(
            rng.uniformInt(0, kSpan + 40));
        // Mostly small reads, some large enough to need the index.
        const auto n = static_cast<std::uint32_t>(
            i % 10 == 0 ? rng.uniformInt(64, 400) : rng.uniformInt(1, 24));
        const ReadResult a = fresh.ftl.readUnits(flash::Lpn{first}, n, t);
        const ReadResult b =
            referenceRead(ref.ftl, pseudo_dist, flash::Lpn{first}, n, t);
        SCOPED_TRACE("read " + std::to_string(i));
        expectSameResult(a, b);
        t = a.done;
    }
    expectSameOps(fresh.ops, ref.ops);
    if (rber > 0.0) {
        // The comparison covers the fault path only if it fired.
        EXPECT_GT(fresh.injector.stats().retryRounds, 0u);
        EXPECT_GT(fresh.ftl.stats().uncorrectableReads, 0u);
    }
}

} // namespace

TEST(ReadPathDiff, MatchesHashMapGroupingWithPseudoSplit)
{
    runDiff(true, 0.0);
}

TEST(ReadPathDiff, MatchesHashMapGroupingWithDefaultPool)
{
    runDiff(false, 0.0);
}

TEST(ReadPathDiff, MatchesHashMapGroupingUnderReadFaults)
{
    runDiff(true, 4e-3);
    runDiff(false, 4e-3);
}
