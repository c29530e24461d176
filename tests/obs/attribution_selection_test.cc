/**
 * @file
 * AttributionRecorder::summarize() selects its nearest-rank quantiles
 * with std::nth_element, counts zeros instead of storing them, and
 * files the tail slices in one pass. This test checks every field of
 * the summary against the sort-based summary it replaced, kept here as
 * the reference, on seeded random ledgers: sample counts where the
 * p99.9 rank moves (999, 1000, 1001), one and two requests, phases
 * that are zero everywhere or non-zero in exactly one request, heavy
 * ties, and negative phase values (PhaseLedger::add has no sign
 * guard, so they stay legal input).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "emmc/request.hh"
#include "obs/attribution.hh"
#include "sim/random.hh"

namespace emmcsim::obs {
namespace {

constexpr std::array<double, 4> kQuantiles = {50.0, 95.0, 99.0, 99.9};

/** The nearest-rank lookup over a sorted vector, as it was. */
sim::Time
rankPercentile(const std::vector<sim::Time> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    if (p <= 0.0)
        return sorted.front();
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::max(1.0, (p / 100.0) * n));
    if (rank < sorted.size() &&
        (static_cast<double>(rank) * 100.0) / n < p) {
        ++rank;
    }
    rank = std::min(rank, sorted.size());
    return sorted[rank - 1];
}

/** The sort-based summarize() (mount and violations left out). */
AttributionSummary
referenceSummary(const std::vector<emmc::CompletedRequest> &reqs,
                 std::size_t slowest_k)
{
    AttributionSummary out;
    out.enabled = true;
    out.requests = reqs.size();
    if (reqs.empty())
        return out;
    const std::size_t n = reqs.size();
    const double dn = static_cast<double>(n);
    auto response = [](const emmc::CompletedRequest &c) {
        return c.finish - c.request.arrival;
    };

    std::vector<sim::Time> sorted(n);
    auto fillDist = [&](PhaseDist &d, auto &&pick) {
        sim::Time total = 0;
        sim::Time max = 0;
        std::uint64_t hits = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const sim::Time v = pick(reqs[i]);
            sorted[i] = v;
            total += v;
            max = std::max(max, v);
            hits += v > 0 ? 1 : 0;
        }
        std::sort(sorted.begin(), sorted.end());
        d.hits = hits;
        d.totalMs = sim::toMilliseconds(total);
        d.meanMs = d.totalMs / dn;
        d.maxMs = sim::toMilliseconds(max);
        d.p50Ms = sim::toMilliseconds(rankPercentile(sorted, 50.0));
        d.p95Ms = sim::toMilliseconds(rankPercentile(sorted, 95.0));
        d.p99Ms = sim::toMilliseconds(rankPercentile(sorted, 99.0));
        d.p999Ms = sim::toMilliseconds(rankPercentile(sorted, 99.9));
    };
    for (std::size_t p = 0; p < emmc::kPhaseCount; ++p) {
        fillDist(out.phases[p], [p](const emmc::CompletedRequest &c) {
            return c.phases.ns[p];
        });
    }
    fillDist(out.response, response);

    for (double q : kQuantiles) {
        TailSlice slice;
        slice.quantile = q;
        const sim::Time threshold = rankPercentile(sorted, q);
        slice.thresholdMs = sim::toMilliseconds(threshold);
        std::array<sim::Time, emmc::kPhaseCount> sums{};
        for (const emmc::CompletedRequest &c : reqs) {
            if (response(c) < threshold)
                continue;
            ++slice.requests;
            for (std::size_t p = 0; p < emmc::kPhaseCount; ++p)
                sums[p] += c.phases.ns[p];
        }
        for (std::size_t p = 0; p < emmc::kPhaseCount; ++p) {
            slice.meanPhaseMs[p] = sim::toMilliseconds(sums[p]) /
                                   static_cast<double>(slice.requests);
        }
        out.tails.push_back(slice);
    }

    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    const std::size_t k = std::min(slowest_k, n);
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [&](std::size_t a, std::size_t b) {
                          if (response(reqs[a]) != response(reqs[b]))
                              return response(reqs[a]) > response(reqs[b]);
                          return reqs[a].request.id < reqs[b].request.id;
                      });
    for (std::size_t i = 0; i < k; ++i) {
        const emmc::CompletedRequest &c = reqs[order[i]];
        SlowRequest s;
        s.id = c.request.id;
        s.arrival = c.request.arrival;
        s.write = c.request.write;
        s.responseMs = sim::toMilliseconds(response(c));
        for (std::size_t p = 0; p < emmc::kPhaseCount; ++p)
            s.phaseMs[p] = sim::toMilliseconds(c.phases.ns[p]);
        out.slowest.push_back(s);
    }
    return out;
}

void
expectSameDist(const PhaseDist &a, const PhaseDist &b)
{
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.totalMs, b.totalMs);
    EXPECT_EQ(a.meanMs, b.meanMs);
    EXPECT_EQ(a.maxMs, b.maxMs);
    EXPECT_EQ(a.p50Ms, b.p50Ms);
    EXPECT_EQ(a.p95Ms, b.p95Ms);
    EXPECT_EQ(a.p99Ms, b.p99Ms);
    EXPECT_EQ(a.p999Ms, b.p999Ms);
}

void
expectSameSummary(const AttributionSummary &got,
                  const AttributionSummary &want)
{
    EXPECT_EQ(got.requests, want.requests);
    for (std::size_t p = 0; p < emmc::kPhaseCount; ++p) {
        SCOPED_TRACE(emmc::phaseName(static_cast<emmc::Phase>(p)));
        expectSameDist(got.phases[p], want.phases[p]);
    }
    {
        SCOPED_TRACE("response");
        expectSameDist(got.response, want.response);
    }
    ASSERT_EQ(got.tails.size(), want.tails.size());
    for (std::size_t i = 0; i < want.tails.size(); ++i) {
        SCOPED_TRACE("tail slice " + std::to_string(i));
        EXPECT_EQ(got.tails[i].quantile, want.tails[i].quantile);
        EXPECT_EQ(got.tails[i].thresholdMs, want.tails[i].thresholdMs);
        EXPECT_EQ(got.tails[i].requests, want.tails[i].requests);
        EXPECT_EQ(got.tails[i].meanPhaseMs, want.tails[i].meanPhaseMs);
    }
    ASSERT_EQ(got.slowest.size(), want.slowest.size());
    for (std::size_t i = 0; i < want.slowest.size(); ++i) {
        SCOPED_TRACE("slowest " + std::to_string(i));
        EXPECT_EQ(got.slowest[i].id, want.slowest[i].id);
        EXPECT_EQ(got.slowest[i].arrival, want.slowest[i].arrival);
        EXPECT_EQ(got.slowest[i].write, want.slowest[i].write);
        EXPECT_EQ(got.slowest[i].responseMs, want.slowest[i].responseMs);
        EXPECT_EQ(got.slowest[i].phaseMs, want.slowest[i].phaseMs);
    }
}

/**
 * @p n seeded random ledgers. Phase columns get different shapes:
 * MountStall is zero everywhere, GcWait is non-zero in one request,
 * QueueWait and BusWait draw from a handful of values (ties, about
 * half zero), Retry and Reloc put negative values below the zeros
 * (their p50 lands among the negatives and the zeros respectively),
 * the rest are wide-ranged with varying zero shares. The response is
 * the ledger total, so it ties wherever the ledgers do.
 */
std::vector<emmc::CompletedRequest>
randomLedgers(std::size_t n, std::uint64_t seed)
{
    sim::Rng rng(seed);
    const auto lone = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    std::vector<emmc::CompletedRequest> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        emmc::CompletedRequest &c = out[i];
        c.request.id = 1000 + i;
        c.request.arrival = static_cast<sim::Time>(i) * 7'000;
        c.request.write = rng.uniformInt(0, 1) == 1;
        for (std::size_t p = 0; p < emmc::kPhaseCount; ++p) {
            const auto phase = static_cast<emmc::Phase>(p);
            sim::Time v = 0;
            switch (phase) {
              case emmc::Phase::MountStall:
                break;
              case emmc::Phase::GcWait:
                v = i == lone ? 2'500'000 : 0;
                break;
              case emmc::Phase::QueueWait:
              case emmc::Phase::BusWait:
                v = rng.uniformInt(0, 1) == 0
                        ? 0
                        : 40'000 * rng.uniformInt(1, 4);
                break;
              case emmc::Phase::Retry: // p50 among the negatives
                v = rng.uniformInt(-5, 1) * 10'000;
                break;
              case emmc::Phase::Reloc: { // p50 among the zeros
                const std::int64_t u = rng.uniformInt(0, 6);
                v = u < 2 ? -10'000 * (u + 1) : u < 6 ? 0 : 30'000;
                break;
              }
              default:
                v = rng.uniformInt(0, static_cast<std::int64_t>(p)) == 0
                        ? 0
                        : rng.uniformInt(1, 5'000'000);
                break;
            }
            c.phases.add(phase, v);
        }
        c.serviceStart = c.request.arrival;
        c.finish = c.request.arrival + c.phases.total();
    }
    return out;
}

void
checkAgainstSort(std::size_t n, std::uint64_t seed)
{
    SCOPED_TRACE("n = " + std::to_string(n));
    const std::vector<emmc::CompletedRequest> reqs =
        randomLedgers(n, seed);
    AttributionRecorder rec(10);
    for (const emmc::CompletedRequest &c : reqs)
        rec.onRequest(c);
    expectSameSummary(rec.summarize(), referenceSummary(reqs, 10));
}

TEST(AttributionSelection, MatchesSortAcrossRankBoundaries)
{
    for (const std::size_t n : {1u, 2u, 3u, 20u, 999u, 1000u, 1001u, 4099u})
        checkAgainstSort(n, 17 + n);
}

TEST(AttributionSelection, MatchesSortOnManySeeds)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed)
        checkAgainstSort(100 + 37 * seed, seed);
}

TEST(AttributionSelection, AllNegativeAndAllTiedColumns)
{
    // Every request identical except one phase that is negative
    // everywhere: the zero block is empty, every rank lands in the
    // negatives, and max stays 0 as in the sort-based summary.
    std::vector<emmc::CompletedRequest> reqs(1001);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        emmc::CompletedRequest &c = reqs[i];
        c.request.id = i;
        c.request.arrival = 0;
        c.phases.add(emmc::Phase::CmdOverhead, 500'000);
        c.phases.add(emmc::Phase::Reloc,
                     -static_cast<sim::Time>(i % 7 + 1) * 1'000);
        c.finish = c.phases.total();
    }
    AttributionRecorder rec(3);
    for (const emmc::CompletedRequest &c : reqs)
        rec.onRequest(c);
    const AttributionSummary got = rec.summarize();
    expectSameSummary(got, referenceSummary(reqs, 3));
    const PhaseDist &reloc =
        got.phases[static_cast<std::size_t>(emmc::Phase::Reloc)];
    EXPECT_EQ(reloc.hits, 0u);
    EXPECT_EQ(reloc.maxMs, 0.0);
    EXPECT_LT(reloc.p999Ms, 0.0);
}

TEST(AttributionSelection, EmptyRecorderSummarizesToNothing)
{
    AttributionRecorder rec;
    const AttributionSummary got = rec.summarize();
    EXPECT_TRUE(got.enabled);
    EXPECT_EQ(got.requests, 0u);
    EXPECT_TRUE(got.tails.empty());
    EXPECT_TRUE(got.slowest.empty());
}

} // namespace
} // namespace emmcsim::obs
