/**
 * @file
 * End-to-end and per-layer benchmark over paper-scale cases.
 *
 * One process runs one workload, single-threaded and closed-loop: the
 * next case starts when the previous one returns. Untraced runs
 * (--trace 0) time whole core::runCase / core::runCaseStream calls and
 * report the end-to-end metrics. Traced runs (--trace 1) also rebuild
 * each case from the same public calls runCase makes, wrap every call
 * in a span kept in memory, and derive the per-layer metrics from the
 * spans plus isolated re-drives of the captured event, request and
 * flash-operation streams. Every case's simulated columns are checked
 * against perfbench/expected.tsv. See perfbench/README.md.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/audit.hh"
#include "core/experiment.hh"
#include "core/scheme.hh"
#include "flash/array.hh"
#include "ftl/wear.hh"
#include "host/replayer.hh"
#include "obs/observer.hh"
#include "obs/report.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "trace/binfmt.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace {

using namespace emmcsim;
using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * Heap bytes allocated and not yet freed, in MiB. The resident set
 * does not show an allocation that re-uses freed memory the process
 * kept (see main), so construction is sized by the allocator's count.
 */
double
heapInUseMb()
{
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/** Peak resident set size of the process, in MiB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/**
 * The benchmark's own generator for choosing inputs from --seed, so
 * that a change to the simulator's RNG cannot change which cases run.
 */
struct SplitMix64
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[next() % i]);
    }
};

// ---------------------------------------------------------------------
// Workloads and cases
// ---------------------------------------------------------------------

/** Generator seeds of a workload's pool are kPoolSeedBase + index. */
constexpr std::uint64_t kPoolSeedBase = 1000;

struct WorkloadDef
{
    std::string name;
    std::vector<std::string> apps;
    std::vector<core::SchemeKind> schemes;
    double scale = 1.0;
    /** Generator seeds with recorded expected columns, per app. */
    std::uint32_t poolSeeds = 0;
    /** Seeds drawn per app for one run (the run's distinct traces). */
    std::uint32_t seedsPerRun = 0;
    /** Replay from an emmctrace-bin file through runCaseStream. */
    bool stream = false;
    core::ExperimentOptions opts;
};

std::vector<WorkloadDef>
workloads()
{
    using core::SchemeKind;
    std::vector<WorkloadDef> w(3);

    // Fig 8: a fresh full-capacity device per case, so construction
    // dominates and the event core does little. Booting is left out:
    // its simulated MRT spans 37-643 ms (4PS) across generator seeds,
    // so a seeded subset would swing sim_mrt_ms from run to run.
    w[0].name = "fig8-sweep";
    w[0].apps = {"Messaging", "Music", "Twitter", "Movie", "CameraVideo"};
    w[0].schemes = {SchemeKind::PS4, SchemeKind::PS8, SchemeKind::HPS};
    w[0].scale = 1.0;
    w[0].poolSeeds = 8;
    w[0].seedsPerRun = 4;

    // Aged, capacity-scaled device: blocking GC fires about 90 times
    // per case while construction costs almost nothing. The device and
    // trace are kept small: at scale 10 on a 0.05 device a case's host
    // time swung 1.6x with the load of other guests, at this size 1.2x.
    w[1].name = "aged-gc";
    w[1].apps = {"Twitter"};
    w[1].schemes = {SchemeKind::HPS};
    w[1].scale = 4.0;
    w[1].poolSeeds = 24;
    w[1].seedsPerRun = 12;
    w[1].opts.capacityScale = 0.02;
    w[1].opts.prefill = 0.3;

    // Read-heavy stream: decode plus replay outweigh construction. A
    // 0.02 device serves the same requests with the same simulated
    // results as a full one, and its construction is ~1 ms, so decode
    // and replay are nearly all of a case.
    w[2].name = "stream-read";
    w[2].apps = {"Movie"};
    w[2].schemes = {SchemeKind::HPS};
    w[2].scale = 15.0;
    w[2].poolSeeds = 12;
    w[2].seedsPerRun = 3;
    w[2].stream = true;
    w[2].opts.capacityScale = 0.02;
    w[2].opts.obs.metrics = true;
    w[2].opts.obs.attribution = true;
    return w;
}

struct CaseSpec
{
    std::string app;
    core::SchemeKind scheme = core::SchemeKind::HPS;
    std::uint64_t genSeed = 0;

    std::string traceKey() const
    {
        return app + "-" + std::to_string(genSeed);
    }
    std::string key() const
    {
        return app + "\t" + core::schemeName(scheme) + "\t" +
               std::to_string(genSeed);
    }
};

/**
 * The run's case list: per app, seedsPerRun generator seeds drawn
 * from the recorded pool, crossed with the schemes, in seeded order.
 */
std::vector<CaseSpec>
planCases(const WorkloadDef &w, std::uint64_t seed)
{
    SplitMix64 rng{seed * 0x2545f4914f6cdd1dULL + w.poolSeeds};
    std::vector<CaseSpec> cases;
    for (const std::string &app : w.apps) {
        std::vector<std::uint64_t> pool(w.poolSeeds);
        for (std::uint32_t i = 0; i < w.poolSeeds; ++i)
            pool[i] = kPoolSeedBase + i;
        rng.shuffle(pool);
        for (std::uint32_t i = 0; i < w.seedsPerRun; ++i)
            for (core::SchemeKind kind : w.schemes)
                cases.push_back({app, kind, pool[i]});
    }
    rng.shuffle(cases);
    return cases;
}

/** One case per distinct trace of @p cases, in first-use order. */
std::vector<CaseSpec>
distinctTraces(const std::vector<CaseSpec> &cases)
{
    std::vector<CaseSpec> out;
    for (const CaseSpec &c : cases) {
        bool seen = false;
        for (const CaseSpec &d : out)
            seen = seen || d.traceKey() == c.traceKey();
        if (!seen)
            out.push_back(c);
    }
    return out;
}

trace::Trace
generateTrace(const WorkloadDef &w, const CaseSpec &c)
{
    const workload::AppProfile *profile = workload::findProfile(c.app);
    if (profile == nullptr) {
        std::cerr << "perfbench: unknown app profile " << c.app << "\n";
        std::exit(2);
    }
    workload::TraceGenerator gen(*profile, c.genSeed);
    return gen.generate(w.scale);
}

// ---------------------------------------------------------------------
// Expected simulated columns (the correctness gate)
// ---------------------------------------------------------------------

/** Simulated outputs of one case that the benchmark gates on. */
struct Columns
{
    std::uint64_t requests = 0;
    double mrtMs = 0.0;
    double serviceMs = 0.0;
    double waf = 0.0;
    std::uint64_t gcRounds = 0;
    std::uint64_t reads = 0;
    std::uint64_t programs = 0;
    std::uint64_t erases = 0;
};

Columns
columnsOf(const core::CaseResult &r)
{
    return {r.requests,           r.meanResponseMs,   r.meanServiceMs,
            r.writeAmplification, r.gcBlockingRounds, r.pageReads,
            r.pagePrograms,       r.totalErases};
}

bool
sameDouble(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

bool
matches(const Columns &a, const Columns &b)
{
    return a.requests == b.requests && sameDouble(a.mrtMs, b.mrtMs) &&
           sameDouble(a.serviceMs, b.serviceMs) &&
           sameDouble(a.waf, b.waf) && a.gcRounds == b.gcRounds &&
           a.reads == b.reads && a.programs == b.programs &&
           a.erases == b.erases;
}

std::string
formatColumns(const Columns &c)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%llu\t%.17g\t%.17g\t%.17g\t%llu\t%llu\t%llu\t%llu",
                  static_cast<unsigned long long>(c.requests), c.mrtMs,
                  c.serviceMs, c.waf,
                  static_cast<unsigned long long>(c.gcRounds),
                  static_cast<unsigned long long>(c.reads),
                  static_cast<unsigned long long>(c.programs),
                  static_cast<unsigned long long>(c.erases));
    return buf;
}

/** Expected columns keyed by "workload\tapp\tscheme\tgen_seed". */
using Expected = std::map<std::string, Columns>;

bool
loadExpected(const std::string &path, Expected &out)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string field[4];
        for (std::string &f : field)
            std::getline(ls, f, '\t');
        Columns c;
        ls >> c.requests >> c.mrtMs >> c.serviceMs >> c.waf >> c.gcRounds >>
            c.reads >> c.programs >> c.erases;
        if (!ls)
            return false;
        out[field[0] + "\t" + field[1] + "\t" + field[2] + "\t" + field[3]] =
            c;
    }
    return !out.empty();
}

/** Counts cases checked against the expected columns. */
struct Gate
{
    const Expected *expected = nullptr;
    std::string workload;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(const CaseSpec &c, const Columns &got, const char *what)
    {
        ++attempted;
        auto it = expected->find(workload + "\t" + c.key());
        if (it == expected->end()) {
            ++failed;
            std::cerr << "perfbench: no expected columns for " << c.key()
                      << "\n";
        } else if (!matches(got, it->second)) {
            ++failed;
            std::cerr << "perfbench: " << what << " " << c.key()
                      << " columns differ\n  got      "
                      << formatColumns(got) << "\n  expected "
                      << formatColumns(it->second) << "\n";
        }
    }
};

// ---------------------------------------------------------------------
// Spans (traced runs)
// ---------------------------------------------------------------------

/** What a traced case id stands for. */
enum class CaseKind { Setup, Main, Flip, Capture, Redrive, Codec };

const char *
caseKindName(CaseKind k)
{
    switch (k) {
      case CaseKind::Setup: return "setup";
      case CaseKind::Main: return "main";
      case CaseKind::Flip: return "attribution-flip";
      case CaseKind::Capture: return "capture";
      case CaseKind::Redrive: return "redrive";
      case CaseKind::Codec: return "codec";
    }
    return "?";
}

/**
 * In-memory span log. A span is one timed call: its name, start, end
 * and parent (an index into the log, -1 for a root); spans of one
 * case share a case id. Written out once, when the run ends.
 */
class SpanLog
{
  public:
    SpanLog() { spans_.reserve(1 << 14); }

    std::uint32_t
    newCase(CaseKind kind, std::string label)
    {
        cases_.push_back({kind, std::move(label)});
        return static_cast<std::uint32_t>(cases_.size() - 1);
    }

    std::int32_t
    open(std::uint32_t case_id, const char *name, std::int32_t parent = -1)
    {
        spans_.push_back({case_id, name, parent, Clock::now(), {}});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }

    void close(std::int32_t idx) { spans_[idx].end = Clock::now(); }

    double ms(std::int32_t idx) const
    {
        return msBetween(spans_[idx].start, spans_[idx].end);
    }

    /** Every span named @p name in cases of @p kind, in ms. */
    std::vector<double>
    each(CaseKind kind, const std::string &name) const
    {
        std::vector<double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (kindOf(i) == kind && spans_[i].name == name)
                out.push_back(ms(static_cast<std::int32_t>(i)));
        return out;
    }

    /**
     * Per case of @p kind: summed duration of the spans named in
     * @p names, in ms (cases in id order).
     */
    std::vector<double>
    perCase(CaseKind kind, const std::vector<std::string> &names) const
    {
        std::map<std::uint32_t, double> total;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if (kindOf(i) != kind)
                continue;
            for (const std::string &n : names)
                if (spans_[i].name == n)
                    total[spans_[i].caseId] +=
                        ms(static_cast<std::int32_t>(i));
        }
        std::vector<double> out;
        for (const auto &kv : total)
            out.push_back(kv.second);
        return out;
    }

    /**
     * Share of the roots named @p root in cases of @p kind that their
     * direct children do not cover. Children of one root run back to
     * back, so this is the time between the timed calls.
     */
    double
    unaccountedPct(CaseKind kind, const std::string &root) const
    {
        double roots = 0.0, children = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (kindOf(i) != kind)
                continue;
            if (s.parent < 0 && s.name == root)
                roots += ms(static_cast<std::int32_t>(i));
            else if (s.parent >= 0 && spans_[s.parent].name == root)
                children += ms(static_cast<std::int32_t>(i));
        }
        return 100.0 * ratio(roots - children, roots);
    }

    /** Write every span as JSON (times in ns since @p origin). */
    bool
    write(const std::string &path, const std::string &workload,
          std::uint64_t seed, Clock::time_point origin) const
    {
        std::ofstream out(path);
        const auto ns = [&](Clock::time_point t) {
            return std::chrono::duration_cast<std::chrono::nanoseconds>(
                       t - origin)
                .count();
        };
        out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
            << ",\"spans\":[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const CaseInfo &c = cases_[s.caseId];
            std::string label = c.label;
            std::replace(label.begin(), label.end(), '\t', '/');
            out << (i ? ",\n" : "") << "{\"id\":" << i
                << ",\"case\":" << s.caseId << ",\"case_kind\":\""
                << caseKindName(c.kind) << "\",\"case_label\":\"" << label
                << "\",\"name\":\"" << s.name << "\",\"parent\":" << s.parent
                << ",\"start_ns\":" << ns(s.start)
                << ",\"end_ns\":" << ns(s.end) << "}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::uint32_t caseId = 0;
        std::string name;
        std::int32_t parent = -1;
        Clock::time_point start;
        Clock::time_point end;
    };
    struct CaseInfo
    {
        CaseKind kind;
        std::string label;
    };

    CaseKind kindOf(std::size_t span) const
    {
        return cases_[spans_[span].caseId].kind;
    }

    std::vector<CaseInfo> cases_;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Rebuilding runCase from its public calls
// ---------------------------------------------------------------------

/**
 * Pre-age a device as runCase does for opts.prefill > 0: write the
 * first @p fraction of the logical space sequentially, re-write a
 * random quarter of it, then checkpoint the journal.
 */
void
prefillDevice(emmc::EmmcDevice &device, double fraction, std::uint64_t seed)
{
    if (fraction <= 0.0)
        return;
    ftl::Ftl &ftl = device.ftl();
    const auto limit = static_cast<std::uint64_t>(
        static_cast<double>(ftl.logicalUnits()) * fraction);
    std::vector<ftl::PageGroup> groups;
    constexpr std::uint32_t kChunkUnits = 64;
    auto install = [&](std::uint64_t u) {
        groups.clear();
        device.distributor().splitWrite(static_cast<flash::Lpn>(u),
                                        kChunkUnits, groups);
        for (const auto &g : groups)
            ftl.installGroup(g.pool, g.lpns);
    };
    for (std::uint64_t u = 0; u + kChunkUnits <= limit; u += kChunkUnits)
        install(u);
    sim::Rng rng(seed);
    const std::uint64_t rewrites = limit / 4 / kChunkUnits;
    for (std::uint64_t i = 0; i < rewrites; ++i)
        install(static_cast<std::uint64_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(limit - kChunkUnits))));
    ftl.journal().checkpoint();
}

/** One case's live objects, torn down in reverse order of creation. */
struct Rig
{
    emmc::EmmcConfig cfg;
    std::unique_ptr<sim::Simulator> simulator;
    std::unique_ptr<emmc::EmmcDevice> device;
    std::unique_ptr<host::Replayer> replayer;
    std::unique_ptr<obs::DeviceObserver> observer;
    double constructHeapMb = 0.0;

    void
    reset()
    {
        observer.reset();
        replayer.reset();
        device.reset();
        simulator.reset();
    }
};

/** Device-side outputs of a replay, read the way runCase reads them. */
Columns
collectColumns(const emmc::EmmcDevice &d)
{
    Columns c;
    c.requests = d.stats().requests;
    c.mrtMs = d.stats().responseMs.mean();
    c.serviceMs = d.stats().serviceMs.mean();
    c.waf = ftl::writeAmplification(d.array(), d.ftl());
    c.gcRounds = d.ftl().gcStats().blockingRounds;
    const flash::ArrayStats ops = d.array().totalStats();
    c.reads = ops.reads;
    c.programs = ops.programs;
    c.erases = ftl::computeWear(d.array()).totalErases;
    return c;
}

std::uint64_t
totalOps(const flash::ArrayStats &s)
{
    return s.reads + s.programs + s.erases + s.copybackReads +
           s.copybackPrograms;
}

/** A flash operation captured through FlashArray::setOpHook. */
struct FlashOp
{
    flash::OpKind kind;
    flash::PageAddr addr;
    sim::Time start;
    sim::Time busTime;
};

/** A request the device served, captured through its trace hook. */
struct ServedRequest
{
    emmc::IoRequest request;
    sim::Time serviceStart;
};

/** Counts and isolated re-drive times of one distinct case. */
struct LayerCounts
{
    double requests = 0, packedCmds = 0, noWaitPct = 0;
    double events = 0, retries = 0, failedRequests = 0;
    double gcRounds = 0, gcRelocated = 0, waf = 0;
    double reads = 0, programs = 0, erases = 0, flashOps = 0;
    double redriveEvents = 0, redriveMs = 0;
    double ftlIsoMs = 0, ftlIsoOps = 0;
    double flashIsoMs = 0, flashIsoOps = 0;
    double reportBytes = 0;
};

/** Re-schedules captured event times on a bare simulator. */
struct EventRedrive
{
    sim::Simulator *simulator;
    const std::vector<sim::Time> *times;
    std::size_t next = 0;

    void
    scheduleNext()
    {
        if (next < times->size())
            simulator->schedule((*times)[next++], [this] { scheduleNext(); });
    }
};

/** Transfer size of a captured read, recovered from its bus time. */
units::Bytes
readTransferBytes(const flash::FlashArray &array, const FlashOp &op)
{
    const flash::Timing &t = array.timing();
    const std::uint32_t page =
        array.geometry().pools.at(op.addr.pool).pageBytes;
    for (std::uint32_t b = 4096; b <= page; b += 4096)
        if (t.pageCmdOverhead + t.transferTime(b) == op.busTime)
            return units::Bytes{b};
    return units::Bytes{0};
}

// ---------------------------------------------------------------------
// The benchmark
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string record; ///< non-empty: write expected columns here
};

/** Paths relative to the checkout root, the working directory. */
const char *const kExpectedPath = "perfbench/expected.tsv";
const std::string kDataDir = ".bench_build/perfbench-data";

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};
using MetricList = std::vector<Metric>;

class Bench
{
  public:
    Bench(const Args &args, const WorkloadDef &w, const Expected &expected,
          Clock::time_point origin)
        : args_(args), w_(w), origin_(origin),
          cases_(planCases(w, args.seed))
    {
        gate_.expected = &expected;
        gate_.workload = w.name;
    }

    int run();

  private:
    void setup();
    core::CaseResult runUntraced(const CaseSpec &c);
    Rig buildRig(const CaseSpec &c, const core::ExperimentOptions &opts,
                 std::uint32_t case_id, std::int32_t root);
    double tracedCase(const CaseSpec &c, const core::ExperimentOptions &opts,
                      CaseKind kind, double &replay_ms);
    LayerCounts captureAndRedrive(const CaseSpec &c);
    void measureCodec();
    int finishUntraced(const std::vector<double> &case_ms,
                       const std::vector<double> &best_ms,
                       std::uint64_t requests,
                       const std::vector<Columns> &cols);
    int finishTraced(const std::vector<double> &untraced_best_ms,
                     const std::vector<double> &traced_best_ms,
                     const std::vector<double> &attr_delta_ms,
                     const std::vector<LayerCounts> &layers);
    int emit(const MetricList &m);

    const Args &args_;
    const WorkloadDef &w_;
    Clock::time_point origin_;
    std::vector<CaseSpec> cases_;
    Gate gate_;
    SpanLog log_;
    std::map<std::string, trace::Trace> traces_;
    std::map<std::string, std::string> binPaths_;
    double setupS_ = 0.0;
    double setupPeakRssMb_ = 0.0;
    std::vector<double> constructHeapMb_;
    std::uint64_t codecBytes_ = 0, codecRecords_ = 0;
};

void
Bench::setup()
{
    const std::vector<CaseSpec> distinct = distinctTraces(cases_);

    // Set up several times and report the median, so that one slow
    // set-up (page faults, a busy neighbour) does not decide setup_s.
    // Each set-up generates (and encodes) the run's traces and then
    // warms up with one untimed case per scheme, each on a trace of the
    // workload's first app, so that set-ups do alike work whatever
    // cases the seed draws. The peak RSS is read after the first
    // set-up, in a heap that no timed case has fragmented yet, so it
    // is the inputs plus the largest live device.
    std::vector<CaseSpec> warmup;
    for (core::SchemeKind kind : w_.schemes)
        for (const CaseSpec &c : cases_)
            if (c.scheme == kind && c.app == w_.apps.front()) {
                warmup.push_back(c);
                break;
            }
    constexpr int kSetupReps = 5;
    std::vector<double> reps;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const std::uint32_t id =
            log_.newCase(CaseKind::Setup, "rep" + std::to_string(rep));
        const auto t0 = Clock::now();
        traces_.clear();
        for (const CaseSpec &c : distinct) {
            std::int32_t s = log_.open(id, "workload.gen");
            trace::Trace t = generateTrace(w_, c);
            log_.close(s);
            if (w_.stream) {
                s = log_.open(id, "trace.encode");
                const std::string path = kDataDir + "/" + w_.name +
                                         "-" + c.traceKey() + ".bin";
                trace::saveBinTraceFile(t, path);
                binPaths_[c.traceKey()] = path;
                log_.close(s);
            }
            traces_.emplace(c.traceKey(), std::move(t));
        }
        const std::int32_t s = log_.open(id, "core.warmup");
        for (const CaseSpec &c : warmup)
            runUntraced(c);
        log_.close(s);
        reps.push_back(msBetween(t0, Clock::now()) / 1000.0);
        if (rep == 0)
            setupPeakRssMb_ = peakRssMb();
    }
    setupS_ = median(reps);
}

core::CaseResult
Bench::runUntraced(const CaseSpec &c)
{
    if (w_.stream) {
        trace::BinTraceSource src(binPaths_.at(c.traceKey()));
        if (src.failed()) {
            std::cerr << "perfbench: cannot open "
                      << binPaths_.at(c.traceKey()) << "\n";
            std::exit(1);
        }
        return core::runCaseStream(src, c.scheme, w_.opts);
    }
    return core::runCase(traces_.at(c.traceKey()), c.scheme, w_.opts);
}

Rig
Bench::buildRig(const CaseSpec &c, const core::ExperimentOptions &opts,
                std::uint32_t case_id, std::int32_t root)
{
    Rig rig;
    std::int32_t s = log_.open(case_id, "core.construct", root);
    const double heap0 = heapInUseMb();
    rig.simulator = std::make_unique<sim::Simulator>();
    rig.cfg = core::applyOptions(core::schemeConfig(c.scheme), opts);
    rig.device = core::makeDevice(*rig.simulator, c.scheme, rig.cfg);
    rig.constructHeapMb = heapInUseMb() - heap0;
    log_.close(s);

    s = log_.open(case_id, "core.prefill", root);
    prefillDevice(*rig.device, opts.prefill, opts.prefillSeed);
    log_.close(s);

    s = log_.open(case_id, "host.setup", root);
    rig.replayer =
        std::make_unique<host::Replayer>(*rig.simulator, *rig.device);
    log_.close(s);

    s = log_.open(case_id, "obs.attach", root);
    if (opts.obs.any()) {
        obs::ObserverOptions o;
        o.metrics = opts.obs.metrics;
        o.trace = opts.obs.traceSpans;
        o.sampleWindow = opts.obs.sampleWindow;
        o.attribution = opts.obs.attribution;
        o.eventCore = opts.obs.eventCore;
        o.replayStats = &rig.replayer->stats();
        rig.observer = std::make_unique<obs::DeviceObserver>(
            *rig.simulator, *rig.device, o);
    }
    log_.close(s);
    return rig;
}

/**
 * Rebuild one case from runCase's public calls with a span around
 * each. @return the case wall time (root span plus teardown), in ms.
 */
double
Bench::tracedCase(const CaseSpec &c, const core::ExperimentOptions &opts,
                  CaseKind kind, double &replay_ms)
{
    const std::uint32_t id = log_.newCase(kind, c.key());
    const std::int32_t root = log_.open(id, "core.case");
    Rig rig = buildRig(c, opts, id, root);
    if (kind == CaseKind::Main)
        constructHeapMb_.push_back(rig.constructHeapMb);

    host::ReplayOptions ro;
    ro.maxRetries = opts.hostMaxRetries;
    std::optional<trace::BinTraceSource> src;
    if (w_.stream) {
        const std::int32_t s = log_.open(id, "trace.open", root);
        src.emplace(binPaths_.at(c.traceKey()));
        log_.close(s);
    }
    const std::int32_t replay = log_.open(id, "host.replay", root);
    trace::Trace replayed;
    host::StreamReplayResult sres;
    if (src)
        sres = rig.replayer->replayStream(*src, ro);
    else
        replayed = rig.replayer->replay(traces_.at(c.traceKey()), ro);
    log_.close(replay);
    replay_ms = log_.ms(replay);

    // runCase's own work after the replay: columns and the p99 tail.
    std::int32_t s = log_.open(id, "core.collect", root);
    const Columns cols = collectColumns(*rig.device);
    double p99 = 0.0;
    if (src) {
        p99 = sres.responseHistMs.percentileEstimate(99.0);
    } else {
        sim::Percentiles resp;
        for (const auto &r : replayed.records())
            resp.add(sim::toMilliseconds(r.finish - r.arrival));
        p99 = resp.percentile(99.0);
    }
    log_.close(s);

    s = log_.open(id, "obs.finish", root);
    if (rig.observer)
        rig.observer->finish();
    log_.close(s);
    log_.close(root);

    const std::int32_t destroy = log_.open(id, "core.destroy");
    rig.reset();
    replayed = trace::Trace{};
    src.reset();
    log_.close(destroy);

    gate_.check(c, cols, caseKindName(kind));
    // Uses the tail runCase computes, so its cost stays in the span.
    if (cols.requests > 0 && !(p99 > 0.0))
        ++gate_.failed;
    return log_.ms(root) + log_.ms(destroy);
}

/**
 * Replay one case with capture hooks on the simulator (event times),
 * the device (served requests) and the flash array (operations), then
 * audit it, write its run report, and re-drive each captured stream
 * alone: events into a bare simulator, requests into the FTL of a
 * fresh device, flash operations into a fresh array.
 */
LayerCounts
Bench::captureAndRedrive(const CaseSpec &c)
{
    LayerCounts L;
    const std::uint32_t id = log_.newCase(CaseKind::Capture, c.key());
    std::vector<sim::Time> times;
    double pending = 0.0;
    std::vector<ServedRequest> served;
    std::vector<FlashOp> ops;

    Rig rig = buildRig(c, w_.opts, id, -1);
    const emmc::EmmcConfig cfg = rig.cfg;
    const sim::Simulator::HookId hook = rig.simulator->addPostEventHook(
        [&](const sim::Simulator &s) {
            times.push_back(s.now());
            pending += static_cast<double>(s.events().size());
        });
    const emmc::EmmcDevice::TraceHook prev = rig.device->traceHook();
    rig.device->setTraceHook(
        [&served, prev](const emmc::CompletedRequest &cr) {
            served.push_back({cr.request, cr.serviceStart});
            if (prev)
                prev(cr);
        });
    rig.device->array().setOpHook(
        [&ops](flash::OpKind kind, const flash::PageAddr &addr,
               const flash::OpResult &res) {
            ops.push_back({kind, addr, res.start, res.busTime});
        });

    host::ReplayOptions ro;
    ro.maxRetries = w_.opts.hostMaxRetries;
    if (w_.stream) {
        trace::BinTraceSource src(binPaths_.at(c.traceKey()));
        rig.replayer->replayStream(src, ro);
    } else {
        rig.replayer->replay(traces_.at(c.traceKey()), ro);
    }
    rig.simulator->removePostEventHook(hook);
    rig.device->array().setOpHook(nullptr);
    rig.device->setTraceHook(nullptr);
    if (rig.observer)
        rig.observer->finish();

    const emmc::EmmcDevice &d = *rig.device;
    gate_.check(c, collectColumns(d), "capture");
    const flash::ArrayStats full = d.array().totalStats();
    L.requests = static_cast<double>(d.stats().requests);
    L.packedCmds = static_cast<double>(d.packingStats().packedCommands);
    L.noWaitPct = 100.0 * d.stats().noWaitRatio();
    L.events = static_cast<double>(rig.simulator->executedCount());
    L.retries = static_cast<double>(rig.replayer->stats().retriesScheduled);
    L.failedRequests =
        static_cast<double>(rig.replayer->stats().failedRequests);
    L.gcRounds = static_cast<double>(d.ftl().gcStats().blockingRounds);
    L.gcRelocated = static_cast<double>(d.ftl().gcStats().relocatedUnits);
    L.waf = ftl::writeAmplification(d.array(), d.ftl());
    L.reads = static_cast<double>(full.reads);
    L.programs = static_cast<double>(full.programs);
    L.erases = static_cast<double>(full.erases);
    L.flashOps = static_cast<double>(ops.size());
    if (totalOps(full) != ops.size() || times.size() != L.events)
        ++gate_.failed;

    std::int32_t s = log_.open(id, "check.audit");
    {
        check::DeviceAuditor auditor(*rig.simulator, *rig.device);
        auditor.runFullAudit();
        auditor.detach();
        if (!auditor.report().clean())
            ++gate_.failed;
    }
    log_.close(s);

    s = log_.open(id, "obs.report");
    {
        obs::RunReport report;
        report.setMeta("tool", "perfbench");
        report.setMeta("workload", w_.name);
        report.setMeta("trace", c.traceKey());
        report.setMeta("scheme", core::schemeName(c.scheme));
        report.setMeta("requests", d.stats().requests);
        if (rig.observer) {
            report.addRun(core::schemeName(c.scheme),
                          rig.observer->snapshot(), rig.observer->series(),
                          rig.observer->attribution());
        } else {
            report.addRun(core::schemeName(c.scheme), {});
        }
        std::ostringstream os;
        report.writeJson(os);
        L.reportBytes = static_cast<double>(os.tellp());
    }
    log_.close(s);
    rig.reset();

    const std::uint32_t rid = log_.newCase(CaseKind::Redrive, c.key());

    // Event core alone: the captured times, kept about as many events
    // ahead as the real queue held on average.
    {
        sim::Simulator bare;
        EventRedrive drive{&bare, &times};
        const double depth =
            ratio(pending, static_cast<double>(times.size()));
        const auto window =
            static_cast<std::size_t>(std::max(1.0, std::round(depth)));
        for (std::size_t i = 0; i < window; ++i)
            drive.scheduleNext();
        s = log_.open(rid, "sim.redrive");
        bare.run();
        log_.close(s);
        L.redriveEvents = static_cast<double>(bare.executedCount());
        L.redriveMs = log_.ms(s);
    }

    // FTL alone: the served requests, in service order, straight into
    // the distributor and FTL of a fresh (equally aged) device.
    {
        std::stable_sort(served.begin(), served.end(),
                         [](const ServedRequest &a, const ServedRequest &b) {
                             return a.serviceStart < b.serviceStart;
                         });
        sim::Simulator fsim;
        auto dev = core::makeDevice(fsim, c.scheme, cfg);
        prefillDevice(*dev, w_.opts.prefill, w_.opts.prefillSeed);
        std::vector<ftl::PageGroup> groups;
        s = log_.open(rid, "ftl.isolated");
        for (const ServedRequest &r : served) {
            const flash::Lpn first = r.request.firstUnit();
            const std::uint32_t n = r.request.sizeUnits();
            if (r.request.write) {
                groups.clear();
                dev->distributor().splitWrite(first, n, groups);
                for (const ftl::PageGroup &g : groups)
                    dev->ftl().writeGroup(g.pool, g.lpns, r.serviceStart);
            } else {
                dev->ftl().readUnits(first, n, r.serviceStart);
            }
        }
        log_.close(s);
        L.ftlIsoMs = log_.ms(s);
        L.ftlIsoOps = static_cast<double>(totalOps(dev->array().totalStats()));
    }

    // Flash array alone: the captured operations on a fresh array.
    {
        flash::FlashArray array(cfg.geometry, cfg.timing, cfg.multiplane);
        s = log_.open(rid, "flash.isolated");
        for (const FlashOp &op : ops) {
            switch (op.kind) {
              case flash::OpKind::Read:
                array.read(op.addr, op.start, readTransferBytes(array, op));
                break;
              case flash::OpKind::Program:
                array.program(op.addr, op.start);
                break;
              case flash::OpKind::Erase:
                array.erase(op.addr, op.start);
                break;
              case flash::OpKind::CopybackRead:
                array.copybackRead(op.addr, op.start);
                break;
              case flash::OpKind::CopybackProgram:
                array.copybackProgram(op.addr, op.start);
                break;
            }
        }
        log_.close(s);
        L.flashIsoMs = log_.ms(s);
        L.flashIsoOps = static_cast<double>(totalOps(array.totalStats()));
    }
    return L;
}

/** Encode each distinct trace to emmctrace-bin and drain it back. */
void
Bench::measureCodec()
{
    constexpr int kReps = 3;
    std::vector<trace::TraceRecord> buf(4096);
    for (int rep = 0; rep < kReps; ++rep) {
        for (const auto &[key, t] : traces_) {
            const std::uint32_t id = log_.newCase(CaseKind::Codec, key);
            const std::string path =
                kDataDir + "/codec-" + w_.name + "-" + key + ".bin";
            std::int32_t s = log_.open(id, "trace.encode");
            trace::saveBinTraceFile(t, path);
            log_.close(s);

            s = log_.open(id, "trace.decode");
            trace::BinTraceSource src(path);
            std::uint64_t n = 0;
            for (std::size_t got; (got = src.next(buf.data(), buf.size()));)
                n += got;
            log_.close(s);
            if (src.failed() || n != t.size())
                ++gate_.failed;
            if (rep == 0) {
                codecBytes_ += std::filesystem::file_size(path);
                codecRecords_ += n;
            }
            std::filesystem::remove(path);
        }
    }
}

int
Bench::emit(const MetricList &m)
{
    std::cout << "{\"correct\": " << (gate_.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << gate_.attempted
              << ", \"failed\": " << gate_.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < m.size(); ++i) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(m[i].value) ? m[i].value : 0.0);
        std::cout << (i ? ", " : "") << "\"" << m[i].name
                  << "\": {\"value\": " << num << ", \"unit\": \""
                  << m[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return 0;
}

/** Print a metric table (name, value, unit, note) for a reader. */
void
printTable(const MetricList &m,
           const std::map<std::string, std::string> &notes)
{
    for (const Metric &metric : m) {
        char line[160];
        std::snprintf(line, sizeof line, "  %-28s %16.4f %-7s",
                      metric.name.c_str(), metric.value, metric.unit.c_str());
        std::cout << line;
        auto it = notes.find(metric.name);
        if (it != notes.end())
            std::cout << "  " << it->second;
        std::cout << "\n";
    }
}

int
Bench::finishUntraced(const std::vector<double> &case_ms,
                      const std::vector<double> &best_ms,
                      std::uint64_t requests,
                      const std::vector<Columns> &cols)
{
    // Tail: the highest nearest-rank percentile that still has at
    // least ten samples above it.
    std::vector<double> sorted = case_ms;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    const std::size_t tail_idx = n > 10 ? n - 11 : 0;
    const double tail_pct = 100.0 * static_cast<double>(tail_idx + 1) /
                            static_cast<double>(n);

    // cols holds one row per case of the cycle, in cycle order, as
    // best_ms does.
    std::vector<double> mrt, waf;
    double cycle_requests = 0.0;
    for (const Columns &c : cols) {
        mrt.push_back(c.mrtMs);
        waf.push_back(c.waf);
        cycle_requests += static_cast<double>(c.requests);
    }
    const MetricList m = {
        {"case_best_ms_p50", median(best_ms), "ms"},
        {"case_best_req_per_s", ratio(cycle_requests, sum(best_ms) / 1000.0),
         "1/s"},
        {"setup_s", setupS_, "s"},
        {"peak_rss_mb", setupPeakRssMb_, "MiB"},
        {"sim_mrt_ms", mean(mrt), "ms"},
        {"sim_waf", mean(waf), "ratio"},
    };
    char tail_note[96], p50_note[128], rps_note[128];
    std::snprintf(tail_note, sizeof tail_note, "p%.1f of %zu cases", tail_pct,
                  n);
    std::snprintf(p50_note, sizeof p50_note,
                  "%zu distinct cases, %.1f times each; median of all %zu "
                  "timed cases: %.3f ms",
                  best_ms.size(),
                  ratio(static_cast<double>(n),
                        static_cast<double>(best_ms.size())),
                  n, median(case_ms));
    std::snprintf(rps_note, sizeof rps_note,
                  "over all %zu timed cases: %.0f 1/s", n,
                  ratio(static_cast<double>(requests), sum(case_ms) / 1000.0));
    std::cout << "end-to-end metrics (host time unless simulated):\n";
    printTable(m, {{"case_best_ms_p50", p50_note},
                   {"case_best_req_per_s", rps_note},
                   {"sim_mrt_ms", "simulated"},
                   {"sim_waf", "simulated"}});
    // The tail of all timed cases is set by how busy the host's other
    // guests were, so it is shown but not reported as a metric.
    printTable({{"case_ms_tail", sorted[tail_idx], "ms"}},
               {{"case_ms_tail", tail_note}});
    std::printf("  %-28s %16.4f %-7s  %llu of %llu cases failed\n",
                "fail_frac",
                ratio(static_cast<double>(gate_.failed),
                      static_cast<double>(gate_.attempted)),
                "ratio", static_cast<unsigned long long>(gate_.failed),
                static_cast<unsigned long long>(gate_.attempted));
    return emit(m);
}

int
Bench::finishTraced(const std::vector<double> &untraced_best_ms,
                    const std::vector<double> &traced_best_ms,
                    const std::vector<double> &attr_delta_ms,
                    const std::vector<LayerCounts> &layers)
{
    using Field = double LayerCounts::*;
    const auto field = [&](Field f) {
        std::vector<double> v;
        for (const LayerCounts &l : layers)
            v.push_back(l.*f);
        return v;
    };
    const auto avg = [&](Field f) { return mean(field(f)); };
    const auto total = [&](Field f) { return sum(field(f)); };
    const auto spans = [&](CaseKind kind, const char *name) {
        return median(log_.each(kind, name));
    };
    const std::vector<double> residual =
        log_.perCase(CaseKind::Main, {"core.prefill", "core.collect"});
    const double case_ms = median(traced_best_ms);
    const double flash_ops = total(&LayerCounts::flashOps);
    using LC = LayerCounts;

    const MetricList m = {
        {"workload.gen_ms", spans(CaseKind::Setup, "workload.gen"), "ms"},
        {"trace.encode_ms", spans(CaseKind::Codec, "trace.encode"), "ms"},
        {"trace.decode_ms", spans(CaseKind::Codec, "trace.decode"), "ms"},
        {"trace.bin_bytes_per_rec",
         ratio(static_cast<double>(codecBytes_),
               static_cast<double>(codecRecords_)),
         "B"},
        {"core.construct_ms", spans(CaseKind::Main, "core.construct"), "ms"},
        {"core.construct_heap_mb", median(constructHeapMb_), "MiB"},
        {"core.case_residual_ms", median(residual), "ms"},
        {"host.replay_ms", spans(CaseKind::Main, "host.replay"), "ms"},
        {"host.retries", avg(&LC::retries), "count"},
        {"host.failed_requests", avg(&LC::failedRequests), "count"},
        {"emmc.requests", avg(&LC::requests), "count"},
        {"emmc.packed_cmds", avg(&LC::packedCmds), "count"},
        {"emmc.nowait_pct", avg(&LC::noWaitPct), "%"},
        {"ftl.isolated_ms", median(field(&LC::ftlIsoMs)), "ms"},
        {"ftl.isolated_op_ratio", ratio(total(&LC::ftlIsoOps), flash_ops),
         "ratio"},
        {"ftl.gc_blocking_rounds", avg(&LC::gcRounds), "count"},
        {"ftl.gc_relocated_units", avg(&LC::gcRelocated), "count"},
        {"ftl.waf", avg(&LC::waf), "ratio"},
        {"flash.reads", avg(&LC::reads), "count"},
        {"flash.programs", avg(&LC::programs), "count"},
        {"flash.erases", avg(&LC::erases), "count"},
        {"flash.isolated_ms", median(field(&LC::flashIsoMs)), "ms"},
        {"flash.isolated_op_ratio", ratio(total(&LC::flashIsoOps), flash_ops),
         "ratio"},
        {"sim.events", avg(&LC::events), "count"},
        {"sim.events_per_req", ratio(total(&LC::events), total(&LC::requests)),
         "ratio"},
        {"sim.ns_per_event",
         1e6 * ratio(total(&LC::redriveMs), total(&LC::redriveEvents)), "ns"},
        {"obs.attribution_overhead_ms", median(attr_delta_ms), "ms"},
        {"obs.report_ms", spans(CaseKind::Capture, "obs.report"), "ms"},
        {"obs.report_bytes", avg(&LC::reportBytes), "B"},
        {"check.full_audit_ms", spans(CaseKind::Capture, "check.audit"), "ms"},
        {"fail_frac",
         ratio(static_cast<double>(gate_.failed),
               static_cast<double>(gate_.attempted)),
         "ratio"},
        {"tracing.overhead_ms", case_ms - median(untraced_best_ms), "ms"},
        {"tracing.unaccounted_pct",
         log_.unaccountedPct(CaseKind::Main, "core.case"), "%"},
    };

    // Bases a reader needs next to the numbers: each span's share of
    // the traced case, and the work each isolated re-drive repeated.
    // Span medians, so the share is taken of the median root span.
    const double root_ms = spans(CaseKind::Main, "core.case");
    const auto share = [&](const char *span) {
        char b[96];
        std::snprintf(b, sizeof b, "%.1f%% of the traced case (%.3f ms)",
                      100.0 * ratio(spans(CaseKind::Main, span), root_ms),
                      root_ms);
        return std::string(b);
    };
    char ftl_note[160], flash_note[160], sim_note[160], over_note[160];
    std::snprintf(ftl_note, sizeof ftl_note,
                  "isolated %.0f flash ops vs %.0f in the full replays",
                  total(&LC::ftlIsoOps), flash_ops);
    std::snprintf(flash_note, sizeof flash_note,
                  "isolated %.0f flash ops vs %.0f in the full replays",
                  total(&LC::flashIsoOps), flash_ops);
    std::snprintf(sim_note, sizeof sim_note,
                  "bare simulator, %.0f re-driven events vs %.0f executed",
                  total(&LC::redriveEvents), total(&LC::events));
    std::snprintf(over_note, sizeof over_note,
                  "traced %.3f ms vs untraced %.3f ms (case_best_ms_p50 "
                  "of each)",
                  case_ms, median(untraced_best_ms));
    std::cout << "per-layer metrics (traced run; counts are per distinct "
                 "case):\n";
    printTable(m, {{"core.construct_ms", share("core.construct")},
                   {"host.replay_ms", share("host.replay")},
                   {"ftl.isolated_op_ratio", ftl_note},
                   {"flash.isolated_op_ratio", flash_note},
                   {"sim.ns_per_event", sim_note},
                   {"tracing.overhead_ms", over_note}});
    return emit(m);
}

int
Bench::run()
{
    std::cout << "perfbench workload=" << w_.name << " seed=" << args_.seed
              << " seconds=" << args_.seconds << " trace=" << args_.trace
              << " cases/cycle=" << cases_.size() << "\n";
    setup();

    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args_.seconds));
    // Every case of the cycle runs once per cycle; its fastest run is
    // its best time. Host speed drifts with the load of other guests,
    // and that only ever slows a run, so the best time is the steadiest
    // estimate of what the case itself costs.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> untraced_ms, attr_delta_ms;
    std::vector<double> best_ms(cases_.size(), kInf);
    std::vector<double> traced_best_ms(cases_.size(), kInf);
    std::vector<Columns> cols;
    std::vector<LayerCounts> layers;
    std::uint64_t requests = 0;

    // Whole cycles over the case list, so every run weighs the cases
    // alike; the re-drives run once per distinct case, in cycle 0.
    for (int cycle = 0; cycle == 0 || Clock::now() < deadline; ++cycle) {
        for (std::size_t i = 0; i < cases_.size(); ++i) {
            const CaseSpec &c = cases_[i];
            double replay_ms = 0.0;
            const auto traced = [&] {
                traced_best_ms[i] =
                    std::min(traced_best_ms[i],
                             tracedCase(c, w_.opts, CaseKind::Main, replay_ms));
            };
            // Alternate which goes first in traced runs, so neither the
            // traced nor the untraced case always finds a warm heap.
            if (args_.trace && i % 2 == 1)
                traced();
            const auto t0 = Clock::now();
            const core::CaseResult res = runUntraced(c);
            untraced_ms.push_back(msBetween(t0, Clock::now()));
            best_ms[i] = std::min(best_ms[i], untraced_ms.back());
            requests += res.requests;
            gate_.check(c, columnsOf(res), "case");
            if (cycle == 0)
                cols.push_back(columnsOf(res));
            if (!args_.trace)
                continue;
            if (i % 2 == 0)
                traced();
            if (cycle == 0) {
                core::ExperimentOptions flip = w_.opts;
                flip.obs.attribution = !flip.obs.attribution;
                double flip_ms = 0.0;
                tracedCase(c, flip, CaseKind::Flip, flip_ms);
                attr_delta_ms.push_back(w_.opts.obs.attribution
                                            ? replay_ms - flip_ms
                                            : flip_ms - replay_ms);
                layers.push_back(captureAndRedrive(c));
            }
        }
    }

    if (!args_.trace)
        return finishUntraced(untraced_ms, best_ms, requests, cols);

    measureCodec();
    const std::string spans_path = kDataDir + "/spans-" + w_.name +
                                   "-seed" + std::to_string(args_.seed) +
                                   ".json";
    if (!log_.write(spans_path, w_.name, args_.seed, origin_))
        std::cerr << "perfbench: could not write " << spans_path << "\n";
    else
        std::cout << "spans written to " << spans_path << "\n";
    return finishTraced(best_ms, traced_best_ms, attr_delta_ms, layers);
}

/** Replay every pool case once and write its columns to @p path. */
int
recordExpected(const std::string &path)
{
    std::ofstream out(path);
    out << "# Simulated columns of every case a perfbench run can draw.\n"
           "# Regenerate with: perfbench --record perfbench/expected.tsv\n"
           "# workload\tapp\tscheme\tgen_seed\trequests\tmrt_ms\tservice_ms"
           "\twaf\tgc_blocking_rounds\tpage_reads\tpage_programs\terases\n";
    for (const WorkloadDef &w : workloads()) {
        std::vector<CaseSpec> pool;
        for (const std::string &app : w.apps)
            for (std::uint32_t i = 0; i < w.poolSeeds; ++i)
                for (core::SchemeKind kind : w.schemes)
                    pool.push_back({app, kind, kPoolSeedBase + i});
        std::map<std::string, trace::Trace> traces;
        for (const CaseSpec &c : pool) {
            auto it = traces.find(c.traceKey());
            if (it == traces.end())
                it = traces.emplace(c.traceKey(), generateTrace(w, c)).first;
            core::CaseResult res;
            if (w.stream) {
                const std::string bin = kDataDir + "/record.bin";
                trace::saveBinTraceFile(it->second, bin);
                trace::BinTraceSource src(bin);
                res = core::runCaseStream(src, c.scheme, w.opts);
                std::filesystem::remove(bin);
            } else {
                res = core::runCase(it->second, c.scheme, w.opts);
            }
            out << w.name << "\t" << c.key() << "\t"
                << formatColumns(columnsOf(res)) << "\n";
            std::cerr << "recorded " << w.name << " " << c.traceKey() << " "
                      << core::schemeName(c.scheme) << "\n";
        }
    }
    return out ? 0 : 1;
}

[[noreturn]] void
usage(const char *msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "       perfbench --record PATH\n"
                 "Run from the checkout root.\n";
    std::exit(2);
}

bool
parseUnsigned(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
        s.size() > 19)
        return false;
    out = std::stoull(s);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point origin = Clock::now();
    // Keep freed memory in the process. Otherwise every fresh 32 GB
    // device (~240 MB) is returned to the kernel when the case ends and
    // faulted in again by the next one; on a virtual machine that hands
    // freed pages back to its host, those faults cost more than the
    // construction itself and swing with the host's load. Construction
    // still initialises every byte, and peak_rss_mb still counts them.
    mallopt(M_MMAP_MAX, 0);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        std::uint64_t u = 0;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, args.seed))
                usage("--seed takes an unsigned integer");
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, u) || u == 0 || u > 3600)
                usage("--seconds takes an integer in [1, 3600]");
            args.seconds = static_cast<double>(u);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--record") {
            args.record = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    std::filesystem::create_directories(kDataDir);
    if (!args.record.empty())
        return recordExpected(args.record);
    if (args.workload.empty() || args.seconds <= 0.0 || args.trace < 0)
        usage("--workload, --seconds and --trace are required");

    const std::vector<WorkloadDef> defs = workloads();
    const WorkloadDef *w = nullptr;
    for (const WorkloadDef &d : defs)
        if (d.name == args.workload)
            w = &d;
    if (w == nullptr)
        usage(("unknown workload " + args.workload).c_str());

    Expected expected;
    if (!loadExpected(kExpectedPath, expected)) {
        std::cerr << "perfbench: cannot read expected columns from "
                  << kExpectedPath << "\n";
        return 1;
    }
    Bench bench(args, *w, expected, origin);
    return bench.run();
}
