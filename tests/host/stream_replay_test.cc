/**
 * @file
 * Streaming replay tests: replayStream() must drive the device
 * exactly like replay() on the same records — same counters, same
 * metrics, and (at the library level) a byte-identical run report.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/experiment.hh"
#include "emmc/device.hh"
#include "host/replayer.hh"
#include "obs/report.hh"
#include "trace/binfmt.hh"
#include "trace/source.hh"
#include "workload/fixed.hh"

using namespace emmcsim;

namespace {

emmc::EmmcConfig
tinyConfig()
{
    emmc::EmmcConfig cfg;
    cfg.geometry.channels = 1;
    cfg.geometry.chipsPerChannel = 1;
    cfg.geometry.diesPerChip = 1;
    cfg.geometry.planesPerDie = 2;
    cfg.geometry.pagesPerBlock = 8;
    cfg.geometry.pools = {flash::PoolConfig{4096, 32}};
    cfg.timing.pools = {flash::Timing::page4k()};
    cfg.ftl.opRatio = 0.25;
    return cfg;
}

std::unique_ptr<emmc::EmmcDevice>
tinyDevice(sim::Simulator &s)
{
    return std::make_unique<emmc::EmmcDevice>(
        s, tinyConfig(),
        std::make_unique<ftl::SinglePoolDistributor>(0, 1, "4PS"));
}

/** Mixed read/write trace with same-tick ties and varied sizes. */
trace::Trace
mixedTrace(std::size_t n)
{
    trace::Trace t("Mixed");
    for (std::size_t i = 0; i < n; ++i) {
        trace::TraceRecord r;
        // Pairs share an arrival tick: ordering between same-tick
        // arrivals is exactly what must match across paths.
        r.arrival = static_cast<sim::Time>(i / 2 * 2000);
        r.lbaSector = units::Lba{((i * 131) % 900) *
                                 static_cast<std::uint64_t>(
                                     sim::kSectorsPerUnit)};
        r.sizeBytes = units::Bytes{(1 + i % 4) * sim::kUnitBytes};
        r.op = i % 3 == 0 ? trace::OpType::Read : trace::OpType::Write;
        t.push(r);
    }
    return t;
}

/**
 * Replay @p t on two fresh devices built from @p cfg — once through
 * replay() and once through replayStream() over a MemoryTraceSource —
 * and require identical host counters and stream aggregates that agree
 * exactly with the stamped trace.
 */
host::ReplayStats
expectStreamMatchesTrace(const emmc::EmmcConfig &cfg, const trace::Trace &t,
                         const host::ReplayOptions &opts = {},
                         double mean_rel_tol = 0.0)
{
    auto device = [&cfg](sim::Simulator &s) {
        return std::make_unique<emmc::EmmcDevice>(
            s, cfg,
            std::make_unique<ftl::SinglePoolDistributor>(0, 1, "4PS"));
    };
    sim::Simulator s1;
    auto dev1 = device(s1);
    host::Replayer rep1(s1, *dev1);
    const trace::Trace out = rep1.replay(t, opts);

    sim::Simulator s2;
    auto dev2 = device(s2);
    host::Replayer rep2(s2, *dev2);
    trace::MemoryTraceSource src(t);
    const host::StreamReplayResult sres = rep2.replayStream(src, opts);

    const host::ReplayStats &a = rep1.stats();
    const host::ReplayStats &b = rep2.stats();
    EXPECT_EQ(b.errorCompletions, a.errorCompletions);
    EXPECT_EQ(b.retriesScheduled, a.retriesScheduled);
    EXPECT_EQ(b.recoveredRequests, a.recoveredRequests);
    EXPECT_EQ(b.failedRequests, a.failedRequests);
    EXPECT_EQ(b.retryPenalty, a.retryPenalty);
    EXPECT_EQ(b.spoEvents, a.spoEvents);
    EXPECT_EQ(b.spoSkipped, a.spoSkipped);
    EXPECT_EQ(b.reissuedRequests, a.reissuedRequests);
    EXPECT_EQ(b.deferredSubmissions, a.deferredSubmissions);
    EXPECT_EQ(b.recoveryTime, a.recoveryTime);

    EXPECT_EQ(sres.requests, t.size());
    EXPECT_EQ(sres.writeRequests, t.writeCount());
    EXPECT_EQ(sres.readBytes + sres.writeBytes, t.totalBytes());
    EXPECT_EQ(sres.writeBytes, t.writtenBytes());
    EXPECT_EQ(sres.firstArrival, t[0].arrival);
    EXPECT_EQ(sres.lastArrival, t[t.size() - 1].arrival);

    // Per-record aggregates must agree exactly with the stamped trace:
    // one engine drives both, so the device sees an identical event
    // order and only the completion sink differs.
    sim::Time last_finish = 0;
    sim::OnlineStats resp;
    sim::OnlineStats svc;
    sim::Histogram hist(sim::latencyBoundsMs());
    for (const auto &r : out.records()) {
        last_finish = std::max(last_finish, r.finish);
        resp.add(sim::toMilliseconds(r.responseTime()));
        svc.add(sim::toMilliseconds(r.serviceTime()));
        hist.add(sim::toMilliseconds(r.responseTime()));
    }
    EXPECT_EQ(sres.lastFinish, last_finish);
    EXPECT_EQ(sres.responseMs.count(), out.size());
    // Retries and power cuts finish requests out of record order, and
    // the stream sink folds its Welford means in completion order; the
    // means then differ by summation rounding alone (@p mean_rel_tol).
    auto expect_mean = [mean_rel_tol](double got, double want) {
        if (mean_rel_tol == 0.0)
            EXPECT_DOUBLE_EQ(got, want);
        else
            EXPECT_NEAR(got, want, mean_rel_tol * std::abs(want));
    };
    expect_mean(sres.responseMs.mean(), resp.mean());
    expect_mean(sres.serviceMs.mean(), svc.mean());
    EXPECT_EQ(sres.responseHistMs.total(), out.size());
    for (std::size_t i = 0; i < hist.bucketCount(); ++i)
        EXPECT_EQ(sres.responseHistMs.bucketCountAt(i), hist.bucketCountAt(i))
            << "bucket " << i;
    return a;
}

} // namespace

TEST(StreamReplay, MatchesInMemoryReplay)
{
    expectStreamMatchesTrace(tinyConfig(), mixedTrace(400));
}

TEST(StreamReplay, MatchesInMemoryReplayUnderReadFaults)
{
    // Reads past the ECC threshold: some recover on a host retry, some
    // exhaust the budget and fail for good.
    emmc::EmmcConfig cfg = tinyConfig();
    cfg.fault.enabled = true;
    cfg.fault.seed = 11;
    cfg.fault.baseRber = 2e-3;
    host::ReplayOptions opts;
    opts.maxRetries = 2;
    const host::ReplayStats st =
        expectStreamMatchesTrace(cfg, mixedTrace(400), opts, 1e-12);
    EXPECT_GT(st.recoveredRequests, 0u);
    EXPECT_GT(st.failedRequests, 0u);
    EXPECT_GT(st.retryPenalty, 0);
}

TEST(StreamReplay, MatchesInMemoryReplayWithPowerCuts)
{
    // One cut inside the 400 us arrival window, a second landing in
    // the same outage (skipped), a third while the backlog drains.
    host::ReplayOptions opts;
    opts.spo.ticks = {sim::microseconds(100), sim::microseconds(101),
                      sim::milliseconds(5)};
    opts.spo.powerOnDelay = sim::milliseconds(1);
    const host::ReplayStats st = expectStreamMatchesTrace(
        tinyConfig(), mixedTrace(400), opts, 1e-12);
    EXPECT_EQ(st.spoEvents, 2u);
    EXPECT_EQ(st.spoSkipped, 1u);
    EXPECT_GT(st.deferredSubmissions, 0u);
    EXPECT_GT(st.reissuedRequests, 0u);
}

TEST(StreamReplay, DeterministicAcrossRuns)
{
    const trace::Trace t = mixedTrace(200);
    host::StreamReplayResult r[2];
    for (int i = 0; i < 2; ++i) {
        sim::Simulator s;
        auto dev = tinyDevice(s);
        host::Replayer rep(s, *dev);
        trace::MemoryTraceSource src(t);
        r[i] = rep.replayStream(src);
    }
    EXPECT_EQ(r[0].requests, r[1].requests);
    EXPECT_EQ(r[0].lastFinish, r[1].lastFinish);
    EXPECT_DOUBLE_EQ(r[0].responseMs.mean(), r[1].responseMs.mean());
    EXPECT_DOUBLE_EQ(r[0].serviceMs.mean(), r[1].serviceMs.mean());
}

TEST(StreamReplay, CaseResultColumnsMatchInMemoryPath)
{
    const trace::Trace t = mixedTrace(300);
    core::ExperimentOptions opts;
    opts.capacityScale = 0.02;
    opts.prefill = 0.3;

    const core::CaseResult a = core::runCase(t, core::SchemeKind::HPS,
                                             opts);
    trace::MemoryTraceSource src(t);
    const core::CaseResult b =
        core::runCaseStream(src, core::SchemeKind::HPS, opts);

    EXPECT_EQ(b.traceName, a.traceName);
    EXPECT_EQ(b.requests, a.requests);
    EXPECT_DOUBLE_EQ(b.meanResponseMs, a.meanResponseMs);
    EXPECT_DOUBLE_EQ(b.meanServiceMs, a.meanServiceMs);
    EXPECT_DOUBLE_EQ(b.noWaitPct, a.noWaitPct);
    EXPECT_DOUBLE_EQ(b.writeAmplification, a.writeAmplification);
    EXPECT_EQ(b.pagePrograms, a.pagePrograms);
    EXPECT_EQ(b.pageReads, a.pageReads);
    EXPECT_EQ(b.totalErases, a.totalErases);
    EXPECT_EQ(b.gcRelocatedUnits, a.gcRelocatedUnits);
    EXPECT_EQ(b.packedCommands, a.packedCommands);
    // The streaming path keeps no per-record storage: replayed stays
    // empty and the tail comes from the histogram estimate instead.
    EXPECT_EQ(b.replayed.size(), 0u);
    EXPECT_GE(b.p99ResponseMs, 0.0);
}

TEST(StreamReplay, RunReportByteIdenticalToInMemoryPath)
{
    const trace::Trace t = mixedTrace(300);
    core::ExperimentOptions opts;
    opts.capacityScale = 0.02;
    opts.obs.metrics = true;
    opts.obs.attribution = true;
    opts.obs.sampleWindow = sim::milliseconds(1);

    const core::CaseResult a = core::runCase(t, core::SchemeKind::HPS,
                                             opts);
    trace::MemoryTraceSource src(t);
    const core::CaseResult b =
        core::runCaseStream(src, core::SchemeKind::HPS, opts);

    auto render = [](const core::CaseResult &res) {
        obs::RunReport report;
        report.setMeta("tool", "stream_replay_test");
        report.setMeta("trace", res.traceName);
        report.addRun(res.scheme, res.obs.metrics, res.obs.series,
                      res.obs.attribution);
        std::ostringstream os;
        report.writeJson(os);
        return os.str();
    };
    EXPECT_EQ(render(a), render(b))
        << "streaming replay diverged from the in-memory path";
}

TEST(StreamReplay, PendingArrivalsDoNotScaleWithTraceLength)
{
    // The replayer keeps one arrival scheduled at a time, so the event
    // arena peaks at the in-flight window: the same small figure for a
    // trace just past one read chunk and for one three chunks long,
    // replayed in memory or streamed from emmctrace-bin.
    auto highWater = [](const trace::Trace &t, bool streamed) {
        sim::Simulator s;
        auto dev = tinyDevice(s);
        host::Replayer rep(s, *dev);
        if (streamed) {
            const std::string path = testing::TempDir() + "/pending.bin";
            trace::saveBinTraceFile(t, path);
            trace::BinTraceSource src(path);
            EXPECT_FALSE(src.failed()) << src.error().message();
            EXPECT_EQ(rep.replayStream(src).requests, t.size());
        } else {
            EXPECT_EQ(rep.replay(t).size(), t.size());
        }
        return s.events().arenaHighWater();
    };
    const trace::Trace shortTrace = mixedTrace(host::Replayer::kChunk + 1);
    const trace::Trace longTrace = mixedTrace(3 * host::Replayer::kChunk);
    const std::size_t peak = highWater(shortTrace, false);
    EXPECT_LE(peak, 4u);
    EXPECT_EQ(highWater(longTrace, false), peak);
    EXPECT_EQ(highWater(shortTrace, true), peak);
    EXPECT_EQ(highWater(longTrace, true), peak);
}
