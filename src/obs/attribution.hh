/**
 * @file
 * Latency attribution: aggregate per-request phase ledgers into the
 * run-report "attribution" section.
 *
 * Every completed request carries a PhaseLedger (emmc/phases.hh) whose
 * entries sum exactly to finish - arrival. The AttributionRecorder
 * stores each request's ledger and response time as one entry per
 * column (opt-in: it only exists when --attribution is on, so the
 * default path allocates nothing), and summarize() folds them into
 * the AttributionSummary consumed by the report writer and by
 * `emmcsim_cli explain`:
 *
 *  - per-phase distribution stats (hits, total/mean/max, exact
 *    p50/p95/p99/p99.9, selected rather than sorted) across all
 *    requests;
 *  - tail slices: for each response-time quantile, the mean phase
 *    decomposition of the requests at or above it — "what p99
 *    requests spend their time on";
 *  - the slowest-K individual requests with their full ledgers;
 *  - mount-time cost (SPO recovery phases) from SpoStats, so
 *    power-cut recovery shows up next to steady-state phases.
 */

#ifndef EMMCSIM_OBS_ATTRIBUTION_HH
#define EMMCSIM_OBS_ATTRIBUTION_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "emmc/phases.hh"
#include "emmc/request.hh"
#include "sim/types.hh"

namespace emmcsim::emmc {
struct DeviceStats;
struct SpoStats;
}

namespace emmcsim::obs {

/** Schema version of the "attribution" report section. */
inline constexpr int kAttributionVersion = 1;

/** Distribution of one quantity (ms) across all completed requests. */
struct PhaseDist
{
    std::uint64_t hits = 0; ///< requests where the quantity was > 0
    double totalMs = 0.0;
    double meanMs = 0.0;    ///< mean over *all* requests, not just hits
    double maxMs = 0.0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double p999Ms = 0.0;
};

/** Mean phase decomposition of the requests at/above one quantile. */
struct TailSlice
{
    double quantile = 0.0;     ///< e.g. 99.0
    double thresholdMs = 0.0;  ///< response-time cut for this slice
    std::uint64_t requests = 0;
    std::array<double, emmc::kPhaseCount> meanPhaseMs{};
};

/** One of the slowest-K requests, with its full ledger. */
struct SlowRequest
{
    std::uint64_t id = 0;
    sim::Time arrival = 0;
    bool write = false;
    double responseMs = 0.0;
    std::array<double, emmc::kPhaseCount> phaseMs{};
};

/** Mount-time (power-up recovery) cost, summed over all power cuts. */
struct MountSummary
{
    std::uint64_t powerCuts = 0;
    double totalMs = 0.0;
    double checkpointLoadMs = 0.0;
    double journalReplayMs = 0.0;
    double scanMs = 0.0;
    double reEraseMs = 0.0;
    double checkpointWriteMs = 0.0;
};

/** Everything the "attribution" report section serializes. */
struct AttributionSummary
{
    bool enabled = false;
    int version = kAttributionVersion;
    std::uint64_t requests = 0;
    /** Copied from DeviceStats; must be 0 (audit-enforced). */
    std::uint64_t ledgerViolations = 0;
    PhaseDist response;
    std::array<PhaseDist, emmc::kPhaseCount> phases;
    std::vector<TailSlice> tails;
    std::vector<SlowRequest> slowest;
    MountSummary mount;
};

/**
 * Records one ledger per completed request and folds them into an
 * AttributionSummary. Only constructed in attribution mode, so the
 * per-request recording cost never touches the default path.
 */
class AttributionRecorder
{
  public:
    /** @param slowest_k how many worst requests to keep (>= 0). */
    explicit AttributionRecorder(std::size_t slowest_k = 10);

    /** Store @p completed's ledger. */
    void onRequest(const emmc::CompletedRequest &completed);

    /** Fold in end-of-run device state (violations, mount cost). */
    void noteDevice(const emmc::DeviceStats &stats,
                    const emmc::SpoStats &spo);

    /** Number of recorded requests. */
    std::size_t count() const { return count_; }

    /** Aggregate everything recorded so far. */
    AttributionSummary summarize() const;

  private:
    /** Who a request was, for the slowest-K list. */
    struct Meta
    {
        std::uint64_t id;
        sim::Time arrival;
        bool write;
    };

    /** One column per phase, then the response (finish - arrival). */
    static constexpr std::size_t kResponseCol = emmc::kPhaseCount;
    static constexpr std::size_t kColumns = emmc::kPhaseCount + 1;
    static constexpr std::size_t kChunkShift = 12;
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

    /**
     * kChunkSize requests, stored by column. A chunk is allocated once
     * and never moves, so recording a request copies nothing already
     * stored, and summarize() scans each column in contiguous runs.
     */
    struct Chunk
    {
        std::array<std::array<sim::Time, kChunkSize>, kColumns> cols;
        std::array<Meta, kChunkSize> meta;
    };

    /** Value of column @p c for request @p i. */
    sim::Time
    at(std::size_t c, std::size_t i) const
    {
        return chunks_[i >> kChunkShift]->cols[c][i & (kChunkSize - 1)];
    }

    /** Call @p f with each value of column @p c, in request order. */
    template <typename F>
    void
    forEach(std::size_t c, F &&f) const
    {
        for (std::size_t k = 0; k < chunks_.size(); ++k) {
            const std::size_t len =
                std::min(kChunkSize, count_ - (k << kChunkShift));
            const sim::Time *v = chunks_[k]->cols[c].data();
            for (std::size_t i = 0; i < len; ++i)
                f(v[i]);
        }
    }

    std::size_t slowestK_;
    std::size_t count_ = 0;
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::uint64_t ledgerViolations_ = 0;
    MountSummary mount_;
};

} // namespace emmcsim::obs

#endif // EMMCSIM_OBS_ATTRIBUTION_HH
