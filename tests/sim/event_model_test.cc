/**
 * @file
 * Randomized differential test of the event queue.
 *
 * A std::multimap keyed on (when, band) — which preserves insertion
 * order for equal keys, i.e. exactly the FIFO-within-band contract —
 * serves as the executable specification. Every random operation
 * (schedule, front-band schedule, cancel, cancel storm, stale cancel,
 * pop burst) is applied to both the model and an EventQueue, and the
 * two must pop the identical sequence.
 *
 * The load alternates between growing and shrinking the pending set,
 * so pops interleave with schedules at every heap depth; a cancel
 * storm at each peak pushes dead entries past the compaction trigger.
 * A Simulator-level variant reschedules from inside handlers (including
 * zero-delay, same-tick schedules) the way device completions do, and
 * is checked against a multimap-driven reference simulator through
 * both run() and runUntil().
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sim/event.hh"
#include "sim/simulator.hh"

namespace {

using namespace emmcsim::sim;

/** The repo's fixed 4KB-read and erase latencies: offsets drawn
 *  around them give the queue a device-shaped spread of times. */
constexpr Time kShortest = 160'000;
constexpr Time kLongest = 3'800'000;

using ModelKey = std::pair<Time, int>; ///< (when, band): front=0
using ModelMap = std::multimap<ModelKey, int>;

struct LiveEvent
{
    EventId id;
    ModelMap::iterator modelIt;
};

class QueueModelFuzz : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(QueueModelFuzz, PopOrderMatchesMultimapReference)
{
    std::mt19937 rng(GetParam());
    EventQueue q;

    ModelMap model;
    std::map<int, LiveEvent> live;
    std::vector<EventId> deadIds;
    std::vector<int> fired;
    int nextToken = 0;
    Time now = 0;

    // Offsets from "now": near (dense same-tick ties), a few NAND
    // latencies out, and far-future timers.
    std::uniform_int_distribution<Time> nearOff(0, kShortest);
    std::uniform_int_distribution<Time> midOff(0, 4 * kLongest);
    std::uniform_int_distribution<Time> farOff(4 * kLongest,
                                               20 * kLongest);

    auto draw = [&](int pct) {
        return std::uniform_int_distribution<int>(0, 99)(rng) < pct;
    };

    auto scheduleOne = [&](bool front) {
        Time off;
        if (draw(20))
            off = nearOff(rng);
        else if (draw(80))
            off = midOff(rng);
        else
            off = farOff(rng);
        const Time when = now + off;
        const int token = nextToken++;
        auto fn = [&fired, token] { fired.push_back(token); };
        LiveEvent ev;
        ev.id = front ? q.scheduleFront(when, fn) : q.schedule(when, fn);
        ev.modelIt = model.emplace(ModelKey{when, front ? 0 : 1}, token);
        live.emplace(token, ev);
    };

    auto cancelLive = [&](std::map<int, LiveEvent>::iterator it) {
        EXPECT_TRUE(q.cancel(it->second.id));
        model.erase(it->second.modelIt);
        deadIds.push_back(it->second.id);
        return live.erase(it);
    };

    auto popOne = [&]() -> bool {
        Time t = 0;
        EventAction a;
        const bool got = q.pop(t, a);
        EXPECT_EQ(got, !model.empty());
        if (!got)
            return false;
        a();
        EXPECT_FALSE(fired.empty());
        EXPECT_FALSE(model.empty());
        if (fired.empty() || model.empty())
            return false;
        const int token = fired.back();
        EXPECT_EQ(model.begin()->second, token)
            << "pop order diverged from the multimap reference";
        EXPECT_EQ(model.begin()->first.first, t);
        model.erase(model.begin());
        auto liveIt = live.find(token);
        EXPECT_NE(liveIt, live.end());
        if (liveIt != live.end()) {
            deadIds.push_back(liveIt->second.id);
            live.erase(liveIt);
        }
        now = t;
        return true;
    };

    constexpr int kOps = 20'000;
    constexpr int kPhase = 2'000; ///< ops per grow or shrink phase
    for (int op = 0; op < kOps; ++op) {
        // Growing phases schedule more than they pop, so the heap
        // deepens; shrinking phases drain it while new schedules land
        // beside the pops.
        const bool growing = (op / kPhase) % 2 == 0;
        const int schedPct = growing ? 70 : 35;
        const int r = std::uniform_int_distribution<int>(0, 99)(rng);
        if (r < schedPct) {
            scheduleOne(/*front=*/draw(20));
        } else if (r < schedPct + 10 && !live.empty()) {
            // Cancel a random live event.
            auto it = live.begin();
            std::advance(it,
                         std::uniform_int_distribution<std::size_t>(
                             0, live.size() - 1)(rng));
            cancelLive(it);
        } else if (r < schedPct + 15 && !deadIds.empty()) {
            // Stale cancel: fired or already-canceled ids must be
            // rejected by the generation check, even after the slot
            // has been recycled for a new event.
            EXPECT_FALSE(q.cancel(
                deadIds[std::uniform_int_distribution<std::size_t>(
                    0, deadIds.size() - 1)(rng)]));
        } else {
            const int burst = std::uniform_int_distribution<int>(
                1, growing ? 4 : 16)(rng);
            for (int i = 0; i < burst; ++i) {
                if (!popOne())
                    break;
            }
        }
        if (growing && op % kPhase == kPhase - 1) {
            // Cancel storm at the peak: kill ~3/4 of the pending set,
            // enough dead entries to trigger compaction.
            for (auto it = live.begin(); it != live.end();) {
                if (draw(75))
                    it = cancelLive(it);
                else
                    ++it;
            }
        }
        ASSERT_EQ(q.size(), model.size());
    }

    // Drain everything; every scheduled, uncancelled event fired.
    while (popOne()) {
    }
    EXPECT_TRUE(model.empty());
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(live.empty());
    // The load must have exercised compaction.
    EXPECT_GT(q.heapCompactions(), 0u);
    std::vector<std::string> violations;
    q.auditInvariants(violations);
    EXPECT_TRUE(violations.empty());
}

TEST_P(QueueModelFuzz, StaleCancelIsRejectedAfterFire)
{
    std::mt19937 rng(GetParam() ^ 0x5eedu);
    EventQueue q;

    std::vector<EventId> ids;
    std::uniform_int_distribution<Time> off(0, 6 * kLongest);
    for (int round = 0; round < 50; ++round) {
        ids.clear();
        const Time base = q.lastPopTime();
        for (int i = 0; i < 64; ++i)
            ids.push_back(q.schedule(base + off(rng), [] {}));
        Time t;
        EventAction a;
        while (q.pop(t, a))
            a();
        // Every id fired; slots were recycled. The generation tag
        // must reject all of them even if the slot is live again.
        for (int i = 0; i < 32; ++i)
            q.schedule(q.lastPopTime() + off(rng), [] {});
        for (const EventId &id : ids)
            EXPECT_FALSE(q.cancel(id));
        while (q.pop(t, a))
            a();
    }
}

/**
 * Executable reference for Simulator: a multimap keyed on time fires
 * equal-time events in insertion order, i.e. in (when, seq) order.
 */
class ModelSimulator
{
  public:
    Time now() const { return now_; }

    void
    schedule(Time when, std::function<void()> fn)
    {
        pending_.emplace(when, std::move(fn));
    }

    void
    run()
    {
        while (!pending_.empty()) {
            auto it = pending_.begin();
            now_ = it->first;
            std::function<void()> fn = std::move(it->second);
            pending_.erase(it);
            fn();
        }
    }

  private:
    std::multimap<Time, std::function<void()>> pending_;
    Time now_ = 0;
};

/**
 * Run a self-sustaining, handler-driven workload on @p s and return
 * the order in which its tokens executed. Each handler reschedules
 * one or two follow-ups while the budget lasts; ties are common
 * because delays come from four fixed latencies, and some follow-ups
 * land at the current tick (zero delay).
 */
template <typename Sim, typename Drive>
std::vector<int>
runHandlerWorkload(Sim &s, std::uint32_t seed, Drive drive)
{
    std::vector<int> order;
    std::mt19937 rng(seed * 2654435761u + 1);
    std::uniform_int_distribution<Time> off(0, 5 * kLongest);
    constexpr Time kLatencies[4] = {160'000, 244'000, 1'385'000,
                                    3'800'000};
    int budget = 30'000;
    int token = 0;

    std::function<void(int)> fire = [&](int id) {
        order.push_back(id);
        if (budget <= 0)
            return;
        const int kids = std::uniform_int_distribution<int>(1, 2)(rng);
        for (int k = 0; k < kids && budget > 0; ++k) {
            --budget;
            const int kid = ++token;
            Time d;
            const int pick = std::uniform_int_distribution<int>(0, 9)(rng);
            if (pick == 0)
                d = 0; // same tick as the running handler
            else if (pick <= 7)
                d = kLatencies[static_cast<std::size_t>(pick) % 4];
            else
                d = off(rng);
            s.schedule(s.now() + d, [&fire, kid] { fire(kid); });
        }
    };
    for (int i = 0; i < 32; ++i) {
        --budget;
        const int id = ++token;
        s.schedule(off(rng), [&fire, id] { fire(id); });
    }
    drive();
    return order;
}

/**
 * Simulator-level differential: the same handler-driven workload on
 * a Simulator — drained by run(), and stepped by runUntil() with
 * deadlines that fall between and exactly on event times — must
 * execute tokens in the same order as the multimap reference.
 */
TEST_P(QueueModelFuzz, SimulatorMatchesMultimapReference)
{
    ModelSimulator model;
    const std::vector<int> expected =
        runHandlerWorkload(model, GetParam(), [&] { model.run(); });
    ASSERT_EQ(expected.size(), 30'000u);

    Simulator ran;
    const std::vector<int> viaRun =
        runHandlerWorkload(ran, GetParam(), [&] { ran.run(); });
    EXPECT_EQ(viaRun, expected);
    EXPECT_EQ(ran.executedCount(), 30'000u);

    Simulator stepped;
    std::uint64_t steppedCount = 0;
    const std::vector<int> viaRunUntil =
        runHandlerWorkload(stepped, GetParam(), [&] {
            // Alternate a deadline on the next event with one a fixed
            // step ahead, so both runUntil exits are exercised.
            bool onEvent = false;
            while (stepped.pending()) {
                const Time deadline = onEvent
                                          ? stepped.nextEventTime()
                                          : stepped.now() + kShortest;
                steppedCount += stepped.runUntil(deadline);
                onEvent = !onEvent;
            }
        });
    EXPECT_EQ(viaRunUntil, expected);
    EXPECT_EQ(steppedCount, 30'000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueModelFuzz,
                         ::testing::Values(1u, 42u, 20260807u));

} // namespace
