/**
 * @file
 * Replayer: open-loop trace replay onto a simulated eMMC device.
 *
 * Arrivals are scheduled at their trace timestamps regardless of how
 * the device keeps up (open loop) — the same methodology the paper
 * uses when replaying its traces on SSDsim. The replayer plays the
 * role of BIOtracer in reverse: it stamps each completed request with
 * the step-2 (service start) and step-3 (finish) times the device
 * reports.
 *
 * One engine drives every replay (DESIGN.md §15.3): it reads records
 * from a trace::TraceSource one chunk at a time but keeps exactly one
 * arrival scheduled, retries failed requests, and hands each request
 * that finished for good to one of two completion sinks. replay()
 * and resume() use the Trace sink, which stamps a copy of an
 * in-memory trace; replayStream() uses the stream sink, which folds
 * completions into bounded aggregates.
 *
 * Two robustness extensions ride on the same loop (DESIGN.md §13):
 *
 *  - **Sudden power-off.** ReplayOptions::spo schedules power cuts at
 *    pre-drawn ticks. A cut cancels the in-flight command, drops the
 *    device queue, and discards the RAM buffer; the replayer parks
 *    every swallowed request plus any arrival landing during the
 *    outage, and re-issues them in submission order once the device
 *    powers back up through FTL recovery. Works with either sink.
 *
 *  - **Snapshot / resume.** ReplayOptions::snapshotAt captures the
 *    full mutable simulation state into a binary image at the first
 *    quiescent point (device idle, queue empty, no pending retries)
 *    at or after the requested tick. resume() reconstructs the run in
 *    a fresh simulator/device pair and continues it; the completed
 *    replay is byte-identical to the uninterrupted one. The image
 *    carries per-record timestamps, so it needs the Trace sink.
 */

#ifndef EMMCSIM_HOST_REPLAYER_HH
#define EMMCSIM_HOST_REPLAYER_HH

#include <string>
#include <vector>

#include "emmc/device.hh"
#include "fault/spo.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace emmcsim::host {

/** Replay options. */
struct ReplayOptions
{
    /**
     * Fold request addresses into the device's logical space (traces
     * can address a larger region than one device exports).
     */
    bool wrapAddresses = true;
    /**
     * Bounded retry on device-reported errors (uncorrectable reads,
     * rejected writes), mirroring the block layer's requeue policy.
     * 0 disables resubmission.
     */
    std::uint32_t maxRetries = 3;
    /** First retry delay; doubles per attempt (exponential backoff). */
    sim::Time retryBackoff = sim::milliseconds(1);

    /**
     * Sudden-power-off schedule; empty ticks disable injection.
     * Mutually exclusive with snapshotAt (a cut while capturing would
     * make the image ill-defined).
     */
    fault::SpoConfig spo;

    /**
     * Capture a snapshot at the first quiescent point at or after
     * this simulated time; negative disables. The image is available
     * from snapshotImage() after replay() returns, and the replay
     * itself continues to completion unperturbed.
     */
    sim::Time snapshotAt = -1;
};

/** Host-side error-recovery counters for one replay. */
struct ReplayStats
{
    /** Completions that reported an error (any attempt). */
    std::uint64_t errorCompletions = 0;
    /** Resubmissions scheduled by the retry policy. */
    std::uint64_t retriesScheduled = 0;
    /** Requests that succeeded on a retry attempt. */
    std::uint64_t recoveredRequests = 0;
    /** Requests still failing after the retry budget. */
    std::uint64_t failedRequests = 0;
    /** Extra latency requests accrued across their retry attempts. */
    sim::Time retryPenalty = 0;

    /** @name Sudden-power-off (all zero unless SPO is scheduled). @{ */
    /** Power cuts executed. */
    std::uint64_t spoEvents = 0;
    /** Cuts skipped because they landed inside an ongoing outage. */
    std::uint64_t spoSkipped = 0;
    /** Dropped or deferred requests re-issued after power-up. */
    std::uint64_t reissuedRequests = 0;
    /** Submissions parked because the device was off. */
    std::uint64_t deferredSubmissions = 0;
    /** Total simulated power-up recovery time. */
    sim::Time recoveryTime = 0;
    /** @} */
};

/**
 * Aggregate measurements of one streaming replay. replayStream()
 * cannot hand back a timestamp-filled Trace — materializing one would
 * defeat the point of streaming — so it folds every completion into
 * bounded accumulators instead: Welford means plus a fixed-bucket
 * histogram (percentileEstimate for tails), never per-record storage.
 */
struct StreamReplayResult
{
    std::uint64_t requests = 0;
    std::uint64_t writeRequests = 0;
    units::Bytes readBytes{0};
    units::Bytes writeBytes{0};
    sim::Time firstArrival = -1;
    sim::Time lastArrival = 0;
    sim::Time lastFinish = 0;
    /** Response time (finish - original arrival), ms. */
    sim::OnlineStats responseMs;
    /** Service time of the final attempt, ms. */
    sim::OnlineStats serviceMs;
    /** Response-time distribution for tail estimates, ms. */
    sim::Histogram responseHistMs{sim::latencyBoundsMs()};
};

/** Drives one device with one trace. */
class Replayer
{
  public:
    /** Records read from the source per refill of the read buffer. */
    static constexpr std::size_t kChunk = 4096;

    /**
     * @param simulator The event loop (shared with the device).
     * @param device    Target device; its completion callback is taken
     *        over for the duration of the replay.
     */
    Replayer(sim::Simulator &simulator, emmc::EmmcDevice &device);

    /**
     * Replay @p input to completion.
     *
     * @return A copy of @p input whose records carry the measured
     *         serviceStart / finish timestamps.
     */
    trace::Trace replay(const trace::Trace &input,
                        const ReplayOptions &opts = {});

    /**
     * Continue a replay of @p input from a snapshot @p image captured
     * by an earlier replay() with snapshotAt set. The simulator and
     * device must be freshly constructed with the configuration of
     * the capturing run (mismatched geometry fails the image load;
     * other config divergence is the caller's responsibility).
     * opts.spo and opts.snapshotAt must be unset.
     */
    trace::Trace resume(const trace::Trace &input,
                        const std::string &image,
                        const ReplayOptions &opts = {});

    /**
     * Replay a streaming source to completion without materializing
     * the trace, folding each completion into the returned aggregates.
     * Memory holds one read chunk plus the in-flight window regardless
     * of trace length; device behaviour is byte-identical to replay() on
     * the same records, SPO injection included. Snapshotting needs
     * per-record timestamps and is rejected (sim::fatal), as is a
     * source that fails mid-stream.
     */
    StreamReplayResult replayStream(trace::TraceSource &src,
                                    const ReplayOptions &opts = {});

    /** Error/retry counters of the most recent replay. */
    const ReplayStats &stats() const { return stats_; }

    /** @return true once the requested snapshot was captured. */
    bool snapshotTaken() const { return snapshotDone_; }

    /** The captured image (empty until snapshotTaken()). */
    const std::string &snapshotImage() const { return snapshotImage_; }

  private:
    /** Per-request retry bookkeeping, addressed id mod ring size. */
    struct Inflight
    {
        std::uint64_t id = 0;
        sim::Time arrival = 0;     ///< original trace arrival
        sim::Time firstFinish = -1;
        std::uint32_t attempts = 0;
        bool active = false;
    };

    /** Trace-sink wrapper shared by replay() and resume(). */
    trace::Trace replayTrace(const trace::Trace &input,
                             const ReplayOptions &opts,
                             const std::string *image);

    /**
     * The drive loop behind every entry point: reset, resume from
     * @p image (Trace sink only; null for a fresh run), schedule the
     * first arrival of @p src, arm SPO cuts and the snapshot hook, run
     * the simulator to completion.
     */
    void drive(trace::TraceSource &src, const ReplayOptions &opts,
               const std::string *image);

    /**
     * Schedule the record under the read cursor as the one pending
     * arrival, refilling the read buffer from src_ when it is spent;
     * no-op at the end of the source. Each arrival's submit calls it
     * again for the record after.
     */
    void scheduleNextArrival();

    /** Submit @p req now, or park it while the device is off. */
    void submitNow(const emmc::IoRequest &req);

    /** Power-cut event body (one per scheduled SPO tick). */
    void spoCut();

    /** Power-restore event body; re-issues parked requests. */
    void spoPowerUp();

    /** Post-event hook body: capture once quiescent past snapshotAt_. */
    void maybeCapture();

    /** Ring slot for an in-flight id (asserts it is tracked). */
    Inflight &entryFor(std::uint64_t id);

    /** Track a newly scheduled id; grows the ring if its slot is busy. */
    void track(std::uint64_t id, sim::Time arrival);

    /** Double the ring until every active id keeps a distinct slot. */
    void growRing(std::uint64_t id);

    /** Hand a request that finished for good to the active sink. */
    void finish(Inflight &rs, const emmc::CompletedRequest &c);

    sim::Simulator &sim_;
    emmc::EmmcDevice &device_;
    ReplayStats stats_;

    /** @name Completion sinks: exactly one is set during a drive. @{ */
    /** Trace sink: stamps serviceStart / finish into this trace. */
    trace::Trace *stampOut_ = nullptr;
    /** Stream sink: folds each finished request into this result. */
    StreamReplayResult *foldOut_ = nullptr;
    /** @} */

    /** @name Per-replay state (reset by drive()). @{ */
    trace::TraceSource *src_ = nullptr;
    std::vector<trace::TraceRecord> chunk_; ///< read buffer (kChunk)
    std::size_t chunkPos_ = 0;              ///< read cursor into chunk_
    std::size_t chunkLen_ = 0;              ///< records chunk_ holds
    std::vector<Inflight> ring_;
    std::uint64_t nextId_ = 0; ///< id of the next record scheduled
    std::uint64_t logicalUnits_ = 0;
    bool wrap_ = true;
    std::vector<emmc::IoRequest> parked_; ///< awaiting power-up re-issue
    bool spoNotify_ = false;
    sim::Time spoPowerOnDelay_ = 0;
    std::uint64_t pendingRetries_ = 0; ///< scheduled, not yet re-submitted
    std::uint64_t nextArrival_ = 0;    ///< trace records submitted so far
    sim::Time snapshotAt_ = -1;
    bool snapshotDone_ = false;
    std::string snapshotImage_;
    /** @} */
};

} // namespace emmcsim::host

#endif // EMMCSIM_HOST_REPLAYER_HH
