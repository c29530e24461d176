#include "obs/attribution.hh"

#include <algorithm>
#include <cstddef>

#include "emmc/device.hh"
#include "sim/logging.hh"

namespace emmcsim::obs {

namespace {

/** Response-time quantiles the tail slices are cut at. */
constexpr std::array<double, 4> kTailQuantiles = {50.0, 95.0, 99.0, 99.9};

/**
 * 1-based nearest rank of percentile @p p (> 0) over @p n > 0 samples:
 * the floor of p/100 * n, raised by one when rank * 100 / n still
 * falls short of p, clamped to [1, n]. Non-decreasing in @p p, which
 * lets quantiles() select left to right.
 */
std::size_t
nearestRank(std::size_t n, double p)
{
    const auto dn = static_cast<double>(n);
    auto rank = static_cast<std::size_t>(std::max(1.0, (p / 100.0) * dn));
    if (rank < n && (static_cast<double>(rank) * 100.0) / dn < p)
        ++rank;
    return std::min(rank, n);
}

/**
 * Exact nearest-rank values at kTailQuantiles over a sample given as
 * its @p m non-zero values @p nz (permuted in place) plus @p zeros
 * zeros, @p negatives of the non-zero values being negative.
 *
 * In sorted order the sample is [negatives][zeros][positives], so a
 * rank landing in the middle block is 0 and any other rank is an
 * order statistic of @p nz, shifted past the zeros if positive. Each
 * nth_element leaves everything left of its pick no greater than
 * everything right of it, and the ranks never decrease, so each
 * selection runs only on the range right of the previous pick.
 */
std::array<sim::Time, kTailQuantiles.size()>
quantiles(sim::Time *nz, std::size_t m, std::uint64_t negatives,
          std::uint64_t zeros)
{
    std::array<sim::Time, kTailQuantiles.size()> out{};
    const std::size_t n = m + zeros;
    sim::Time *lo = nz;
    for (std::size_t i = 0; i < kTailQuantiles.size(); ++i) {
        const std::size_t g = nearestRank(n, kTailQuantiles[i]) - 1;
        if (g >= negatives && g < negatives + zeros)
            continue; // out[i] stays 0
        sim::Time *at = nz + (g < negatives ? g : g - zeros);
        if (at >= lo) {
            std::nth_element(lo, at, nz + m);
            lo = at + 1;
        }
        out[i] = *at;
    }
    return out;
}

} // namespace

AttributionRecorder::AttributionRecorder(std::size_t slowest_k)
    : slowestK_(slowest_k)
{
}

void
AttributionRecorder::onRequest(const emmc::CompletedRequest &completed)
{
    const std::size_t i = count_ & (kChunkSize - 1);
    if (i == 0) // default-initialized: pages fill as requests arrive
        chunks_.push_back(std::unique_ptr<Chunk>(new Chunk));
    Chunk &chunk = *chunks_.back();
    chunk.meta[i] = Meta{completed.request.id, completed.request.arrival,
                         completed.request.write};
    for (std::size_t p = 0; p < emmc::kPhaseCount; ++p)
        chunk.cols[p][i] = completed.phases.ns[p];
    chunk.cols[kResponseCol][i] = completed.finish -
                                  completed.request.arrival;
    ++count_;
}

void
AttributionRecorder::noteDevice(const emmc::DeviceStats &stats,
                                const emmc::SpoStats &spo)
{
    ledgerViolations_ = stats.ledgerViolations;
    mount_.powerCuts = spo.powerCuts;
    mount_.totalMs = sim::toMilliseconds(spo.recoveryTime);
    mount_.checkpointLoadMs = sim::toMilliseconds(spo.recoveryCheckpointLoad);
    mount_.journalReplayMs = sim::toMilliseconds(spo.recoveryJournalReplay);
    mount_.scanMs = sim::toMilliseconds(spo.recoveryScan);
    mount_.reEraseMs = sim::toMilliseconds(spo.recoveryReErase);
    mount_.checkpointWriteMs =
        sim::toMilliseconds(spo.recoveryCheckpointWrite);
}

AttributionSummary
AttributionRecorder::summarize() const
{
    AttributionSummary out;
    out.enabled = true;
    out.requests = count_;
    out.ledgerViolations = ledgerViolations_;
    out.mount = mount_;
    if (count_ == 0)
        return out;

    const std::size_t n = count_;
    const double dn = static_cast<double>(n);

    // Per column, a cheap OR pass finds one that is zero everywhere
    // (its PhaseDist stays all zero); any other takes one scan for the
    // sums that copies its non-zero values into one reused selection
    // buffer. @return the four quantiles.
    std::vector<sim::Time> nz(n);
    std::vector<std::size_t> live; // phase columns not all zero
    auto fillDist = [&](PhaseDist &d, std::size_t c) {
        std::array<sim::Time, kTailQuantiles.size()> q{};
        sim::Time any = 0;
        forEach(c, [&any](sim::Time v) { any |= v; });
        if (any == 0)
            return q;
        if (c != kResponseCol)
            live.push_back(c);
        sim::Time total = 0;
        sim::Time max = 0;
        std::uint64_t hits = 0;
        std::uint64_t negatives = 0;
        std::size_t m = 0;
        forEach(c, [&](sim::Time v) {
            total += v;
            max = std::max(max, v);
            hits += v > 0 ? 1 : 0;
            negatives += v < 0 ? 1 : 0;
            nz[m] = v;
            m += v != 0 ? 1 : 0;
        });
        d.hits = hits;
        d.totalMs = sim::toMilliseconds(total);
        d.meanMs = d.totalMs / dn;
        d.maxMs = sim::toMilliseconds(max);
        q = quantiles(nz.data(), m, negatives, n - m);
        d.p50Ms = sim::toMilliseconds(q[0]);
        d.p95Ms = sim::toMilliseconds(q[1]);
        d.p99Ms = sim::toMilliseconds(q[2]);
        d.p999Ms = sim::toMilliseconds(q[3]);
        return q;
    };

    for (std::size_t p = 0; p < emmc::kPhaseCount; ++p)
        fillDist(out.phases[p], p);
    // The tail thresholds are the response quantiles.
    const auto thresholds = fillDist(out.response, kResponseCol);

    // File each request under the highest slice it reaches (slice j
    // holds responses >= thresholds[j], which ascend), so slice j sums
    // the buckets above j. The sums are integers, so regrouping them
    // is exact.
    constexpr std::size_t kSlices = kTailQuantiles.size();
    std::array<std::array<sim::Time, emmc::kPhaseCount>, kSlices + 1>
        bucketNs{};
    std::array<std::uint64_t, kSlices + 1> bucketCount{};
    for (std::size_t k = 0; k < chunks_.size(); ++k) {
        const Chunk &chunk = *chunks_[k];
        const std::size_t len = std::min(kChunkSize, n - (k << kChunkShift));
        for (std::size_t i = 0; i < len; ++i) {
            std::size_t b = 0;
            while (b < kSlices &&
                   chunk.cols[kResponseCol][i] >= thresholds[b])
                ++b;
            ++bucketCount[b];
            if (b == 0)
                continue;
            for (const std::size_t p : live)
                bucketNs[b][p] += chunk.cols[p][i];
        }
    }
    out.tails.resize(kSlices);
    std::array<sim::Time, emmc::kPhaseCount> sums{};
    std::uint64_t requests = 0;
    for (std::size_t j = kSlices; j-- > 0;) {
        requests += bucketCount[j + 1];
        TailSlice &slice = out.tails[j];
        slice.quantile = kTailQuantiles[j];
        slice.thresholdMs = sim::toMilliseconds(thresholds[j]);
        slice.requests = requests;
        EMMCSIM_ASSERT(slice.requests > 0,
                       "tail slice threshold excluded every request");
        for (std::size_t p = 0; p < emmc::kPhaseCount; ++p) {
            sums[p] += bucketNs[j + 1][p];
            slice.meanPhaseMs[p] = sim::toMilliseconds(sums[p]) /
                                   static_cast<double>(slice.requests);
        }
    }

    // Slowest K, worst first; ties broken by id so the report is
    // deterministic across STL implementations.
    auto meta = [this](std::size_t i) -> const Meta & {
        return chunks_[i >> kChunkShift]->meta[i & (kChunkSize - 1)];
    };
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    const std::size_t k = std::min(slowestK_, n);
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [&](std::size_t a, std::size_t b) {
                          const sim::Time ra = at(kResponseCol, a);
                          const sim::Time rb = at(kResponseCol, b);
                          if (ra != rb)
                              return ra > rb;
                          return meta(a).id < meta(b).id;
                      });
    out.slowest.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
        const std::size_t r = order[i];
        SlowRequest s;
        s.id = meta(r).id;
        s.arrival = meta(r).arrival;
        s.write = meta(r).write;
        s.responseMs = sim::toMilliseconds(at(kResponseCol, r));
        for (std::size_t p = 0; p < emmc::kPhaseCount; ++p)
            s.phaseMs[p] = sim::toMilliseconds(at(p, r));
        out.slowest.push_back(s);
    }
    return out;
}

} // namespace emmcsim::obs
