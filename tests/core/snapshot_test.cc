/**
 * @file
 * Snapshot / resume determinism: a run captured mid-flight and
 * continued in a fresh simulator+device must reproduce the
 * uninterrupted run byte for byte — replayed timestamps, derived
 * metrics, and the serialized run-report JSON (DESIGN.md §13).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "core/binio.hh"
#include "core/experiment.hh"
#include "core/scheme.hh"
#include "host/replayer.hh"
#include "obs/report.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace emmcsim;
using namespace emmcsim::core;

namespace {

trace::Trace
genTrace(const std::string &name, double scale, std::uint64_t seed = 1)
{
    const workload::AppProfile *p = workload::findProfile(name);
    EXPECT_NE(p, nullptr);
    workload::TraceGenerator g(*p, seed);
    return g.generate(scale);
}

/** Serialize a case's metrics exactly as the CLI's --metrics-json. */
std::string
reportJson(const CaseResult &res)
{
    obs::RunReport r;
    r.setMeta("tool", "snapshot_test");
    r.setMeta("trace", res.traceName);
    r.setMeta("scheme", res.scheme);
    r.addRun("replay", res.obs.metrics);
    std::ostringstream os;
    r.writeJson(os);
    return os.str();
}

void
expectTracesIdentical(const trace::Trace &a, const trace::Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival) << "record " << i;
        EXPECT_EQ(a[i].serviceStart, b[i].serviceStart)
            << "record " << i;
        EXPECT_EQ(a[i].finish, b[i].finish) << "record " << i;
    }
}

/**
 * Capture a replay of @p t at the first quiescent point at or after
 * @p at, resume it in a fresh device, and require the result to match
 * the uninterrupted run: stamped records, derived metrics and the
 * serialized run report.
 *
 * @return Arrivals the capturing run had submitted (from the image).
 */
std::uint64_t
expectResumeMatchesUninterrupted(const trace::Trace &t, sim::Time at)
{
    ExperimentOptions opts;
    opts.capacityScale = 1.0 / 64.0;
    opts.obs.metrics = true;
    // Scheduler self-metrics (sim.events.*) count this process's
    // event-core activity, not device state; a resumed run
    // re-schedules its pending events and reports different figures.
    // They are outside the resume-determinism contract.
    opts.obs.eventCore = false;

    CaseResult full = runCase(t, SchemeKind::HPS, opts);

    ExperimentOptions snap_opts = opts;
    snap_opts.snapshotAt = at;
    CaseResult captured = runCase(t, SchemeKind::HPS, snap_opts);
    EXPECT_FALSE(captured.snapshotImage.empty());

    // The capture itself is passive: the capturing run's outcome is
    // the uninterrupted one.
    expectTracesIdentical(captured.replayed, full.replayed);

    CaseResult resumed =
        resumeCase(t, SchemeKind::HPS, captured.snapshotImage, opts);

    expectTracesIdentical(resumed.replayed, full.replayed);
    EXPECT_DOUBLE_EQ(resumed.meanResponseMs, full.meanResponseMs);
    EXPECT_DOUBLE_EQ(resumed.noWaitPct, full.noWaitPct);
    EXPECT_EQ(resumed.requests, full.requests);

    // The strongest form: the serialized run report (every counter,
    // gauge, summary and histogram) is byte-identical.
    EXPECT_EQ(reportJson(resumed), reportJson(full));

    // Case header, then the replayer image: magic, version, capture
    // time, arrivals submitted.
    BinReader header(captured.snapshotImage);
    header.str();
    header.u32();
    ftl::FtlStats before;
    header.pod(before);
    const std::string inner = header.str();
    BinReader image(inner);
    image.str();
    image.u32();
    image.i64();
    const std::uint64_t arrivals = image.u64();
    EXPECT_TRUE(image.ok());
    return arrivals;
}

} // namespace

TEST(Snapshot, ResumeIsByteIdenticalToUninterruptedRun)
{
    trace::Trace t = genTrace("Messaging", 0.05);
    ASSERT_GT(t.size(), 0u);
    expectResumeMatchesUninterrupted(t, t.duration() / 3);
}

TEST(Snapshot, ResumeMidChunkIsByteIdentical)
{
    // The replayer reads the source a 4096-record chunk at a time. A
    // resumed run restarts its read chunks at the capture's arrival
    // count, so capture past the first chunk and off a chunk boundary.
    trace::Trace t = genTrace("Booting", 0.5);
    ASSERT_GT(t.size(), 2u * 4096u);
    const std::uint64_t arrivals =
        expectResumeMatchesUninterrupted(t, t.duration() * 2 / 3);
    EXPECT_GT(arrivals, 4096u);
    EXPECT_NE(arrivals % 4096u, 0u);
}

TEST(Snapshot, ResumePreservesPrefillBaseline)
{
    // spaceUtilization is measured relative to the post-prefill state;
    // the case image carries that baseline, so a resumed run must
    // report the same figure to the last bit. PS8 pads 4KB writes, so
    // the figure is nontrivially below 1.
    trace::Trace t = genTrace("Music", 0.05);
    ExperimentOptions opts;
    opts.capacityScale = 1.0 / 64.0;
    opts.prefill = 0.3;

    CaseResult full = runCase(t, SchemeKind::PS8, opts);
    EXPECT_LT(full.spaceUtilization, 1.0);

    ExperimentOptions snap_opts = opts;
    snap_opts.snapshotAt = t.duration() / 2;
    CaseResult captured = runCase(t, SchemeKind::PS8, snap_opts);
    ASSERT_FALSE(captured.snapshotImage.empty());

    CaseResult resumed =
        resumeCase(t, SchemeKind::PS8, captured.snapshotImage, opts);
    EXPECT_DOUBLE_EQ(resumed.spaceUtilization, full.spaceUtilization);
    EXPECT_DOUBLE_EQ(resumed.writeAmplification,
                     full.writeAmplification);
    expectTracesIdentical(resumed.replayed, full.replayed);
}

TEST(Snapshot, ResumedRunPassesFinalAudit)
{
    trace::Trace t = genTrace("Twitter", 0.05);
    ExperimentOptions opts;
    opts.capacityScale = 1.0 / 64.0;
    opts.snapshotAt = t.duration() / 2;
    CaseResult captured = runCase(t, SchemeKind::HPS, opts);
    ASSERT_FALSE(captured.snapshotImage.empty());

    ExperimentOptions resume_opts;
    resume_opts.capacityScale = opts.capacityScale;
    resume_opts.auditEveryEvents = 10'000;
    CaseResult resumed = resumeCase(t, SchemeKind::HPS,
                                    captured.snapshotImage,
                                    resume_opts);
    EXPECT_GT(resumed.audit.passes, 0u);
    EXPECT_TRUE(resumed.audit.clean())
        << "post-resume audit found " << resumed.audit.totalViolations()
        << " violation(s)";
}

TEST(Snapshot, DeviceImageSaveLoadSaveIsByteIdentical)
{
    // A GC-active device: Twitter's writes on a 64 MB HPS device with
    // 16-page blocks erase and reopen blocks, so the image carries
    // recycled slabs and a mix of free, open and full blocks.
    trace::Trace t = genTrace("Twitter", 0.3);
    emmc::EmmcConfig cfg = schemeConfig(SchemeKind::HPS);
    cfg.geometry.pagesPerBlock = 16;
    cfg.geometry.pools[0].blocksPerPlane = 64;
    cfg.geometry.pools[1].blocksPerPlane = 32;

    sim::Simulator s;
    auto dev = makeDevice(s, SchemeKind::HPS, cfg);
    host::Replayer rep(s, *dev);
    rep.replay(t);
    std::uint64_t erases = 0;
    const auto &geom = dev->ftl().array().geometry();
    for (std::uint32_t pl = 0; pl < geom.planeCount(); ++pl)
        for (std::size_t k = 0; k < geom.pools.size(); ++k)
            erases += dev->ftl().array().plane(pl).pool(k).totalErases();
    EXPECT_GT(erases, 0u);
    core::BinWriter w;
    dev->save(w);

    sim::Simulator s2;
    auto copy = makeDevice(s2, SchemeKind::HPS, cfg);
    core::BinReader r(w.data());
    copy->load(r);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
    core::BinWriter again;
    copy->save(again);
    EXPECT_TRUE(again.data() == w.data())
        << "save -> load -> save drifted (" << again.data().size()
        << " vs " << w.data().size() << " bytes)";
}

namespace {

/** HPS device with @p t replayed on it (shared by the loader tests). */
struct ReplayedDevice
{
    sim::Simulator sim;
    std::unique_ptr<emmc::EmmcDevice> dev;

    explicit ReplayedDevice(const trace::Trace &t)
        : dev(makeDevice(sim, SchemeKind::HPS))
    {
        host::Replayer rep(sim, *dev);
        rep.replay(t);
    }

    /** Save the device and load the image into a fresh one. */
    bool
    reloads() const
    {
        core::BinWriter w;
        dev->save(w);
        sim::Simulator s2;
        auto copy = makeDevice(s2, SchemeKind::HPS);
        core::BinReader r(w.data());
        copy->load(r);
        return r.ok();
    }
};

} // namespace

TEST(Snapshot, DeviceLoadRejectsMapEntryOutsideArray)
{
    ReplayedDevice d(genTrace("Twitter", 0.05));
    ASSERT_TRUE(d.reloads());

    // Remap a written lpn to a plane the geometry does not have. The
    // mapped count is unchanged, so only entry validation can see it;
    // accepted, the first read of lpn 0 would index past the array.
    ftl::PageMap &map = d.dev->ftl().mapForTest();
    flash::Lpn lpn{-1};
    map.forEachOwned([&lpn](flash::Lpn l, const ftl::MapEntry &e) {
        if (lpn.value() < 0 && e.mapped())
            lpn = l;
    });
    ASSERT_GE(lpn.value(), 0);
    ftl::MapEntry e = map.lookup(lpn);
    e.planeLinear = 99;
    map.set(lpn, e);
    EXPECT_FALSE(d.reloads());
}

TEST(Snapshot, DeviceLoadRejectsStaleMapTarget)
{
    ReplayedDevice d(genTrace("Twitter", 0.05));

    // Two lpns pointing at one unit: in range, but the second entry's
    // target holds a different lpn.
    ftl::PageMap &map = d.dev->ftl().mapForTest();
    std::vector<flash::Lpn> mapped;
    map.forEachOwned([&mapped](flash::Lpn l, const ftl::MapEntry &e) {
        if (e.mapped() && mapped.size() < 2)
            mapped.push_back(l);
    });
    ASSERT_EQ(mapped.size(), 2u);
    map.set(mapped[1], map.lookup(mapped[0]));
    EXPECT_FALSE(d.reloads());
}

TEST(Snapshot, DeviceLoadRejectsSlabLpnOutsideLogicalSpace)
{
    ReplayedDevice d(genTrace("Twitter", 0.05));

    // Plant an out-of-range lpn in an unwritten (invalid) slot of an
    // open block: every pool counter still agrees, but recovery would
    // index its winner table with it.
    flash::FlashArray &array = d.dev->ftl().array();
    flash::BlockPool &pool = array.plane(0).pool(0);
    const std::int32_t open = pool.activeBlock();
    ASSERT_GE(open, 0);
    const flash::BlockId bid{static_cast<std::uint32_t>(open)};
    ASSERT_LT(pool.writtenPages(bid), pool.pagesPerBlock());
    const flash::Ppn ppn =
        units::blockFirstPage(bid, pool.pagesPerBlock()) +
        pool.writtenPages(bid);
    const auto beyond = static_cast<std::int64_t>(
        d.dev->ftl().logicalUnits() + 5);
    pool.corruptUnitForTest(ppn, 0, flash::Lpn{beyond}, /*valid=*/false);
    EXPECT_FALSE(d.reloads());
}

TEST(Snapshot, FtlLoadRejectsNonBooleanProgramFlag)
{
    ReplayedDevice d(genTrace("Twitter", 0.05));
    ASSERT_TRUE(d.reloads());

    // The FTL section of a device image (after the injector and the
    // array) ends with the last host program: the valid flag (1 byte),
    // plane and pool (u32 each), ppn (u64) and completion time (i64).
    core::BinWriter upToFtl;
    d.dev->faultInjector().save(upToFtl);
    d.dev->array().save(upToFtl);
    d.dev->ftl().save(upToFtl);
    const std::size_t flagAt = upToFtl.data().size() - (1 + 4 + 4 + 8 + 8);

    core::BinWriter w;
    d.dev->save(w);
    const std::string good = w.data();
    ASSERT_LE(static_cast<unsigned char>(good[flagAt]), 1u);
    for (const int bad : {2, 0xff}) {
        std::string image = good;
        image[flagAt] = static_cast<char>(bad);
        sim::Simulator s2;
        auto copy = makeDevice(s2, SchemeKind::HPS);
        core::BinReader r(image);
        copy->load(r);
        EXPECT_FALSE(r.ok()) << "valid byte " << bad;
    }
}

TEST(Snapshot, GarbageImageIsRejected)
{
    trace::Trace t = genTrace("Messaging", 0.02);
    ExperimentOptions opts;
    opts.capacityScale = 1.0 / 64.0;
    EXPECT_DEATH(resumeCase(t, SchemeKind::HPS, "not a snapshot", opts),
                 "snapshot");
}

TEST(Snapshot, TruncatedImageIsRejected)
{
    trace::Trace t = genTrace("Messaging", 0.02);
    ExperimentOptions opts;
    opts.capacityScale = 1.0 / 64.0;
    opts.snapshotAt = t.duration() / 2;
    CaseResult captured = runCase(t, SchemeKind::HPS, opts);
    ASSERT_FALSE(captured.snapshotImage.empty());

    const std::string truncated = captured.snapshotImage.substr(
        0, captured.snapshotImage.size() / 2);
    ExperimentOptions resume_opts;
    resume_opts.capacityScale = opts.capacityScale;
    EXPECT_DEATH(
        resumeCase(t, SchemeKind::HPS, truncated, resume_opts),
        "snapshot");
}
