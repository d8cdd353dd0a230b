/**
 * @file
 * Unit tests for the discrete-event kernel: scheduling, ordering,
 * priorities, rescheduling, simulate() horizon semantics, and parked
 * periodic events checked against an event that really ticks.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/ckpt.hh"
#include "sim/eventq.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/simulator.hh"

namespace dramctrl {
namespace {

class ThrowOnError : public ::testing::Test
{
  protected:
    void SetUp() override { setThrowOnError(true); }
    void TearDown() override { setThrowOnError(false); }
};

using EventQueueTest = ThrowOnError;

TEST_F(EventQueueTest, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_EQ(eq.nextTick(), kMaxTick);
    EXPECT_EQ(eq.numEventsServiced(), 0u);
}

TEST_F(EventQueueTest, ServicesEventAtScheduledTick)
{
    EventQueue eq;
    Tick fired_at = 0;
    EventFunctionWrapper ev([&] { fired_at = eq.curTick(); }, "ev");
    eq.schedule(ev, 100);
    EXPECT_TRUE(ev.scheduled());
    EXPECT_EQ(ev.when(), 100u);
    eq.serviceOne();
    EXPECT_EQ(fired_at, 100u);
    EXPECT_EQ(eq.curTick(), 100u);
    EXPECT_FALSE(ev.scheduled());
}

TEST_F(EventQueueTest, OrdersEventsByTick)
{
    EventQueue eq;
    std::vector<int> order;
    EventFunctionWrapper a([&] { order.push_back(1); }, "a");
    EventFunctionWrapper b([&] { order.push_back(2); }, "b");
    EventFunctionWrapper c([&] { order.push_back(3); }, "c");
    eq.schedule(c, 300);
    eq.schedule(a, 100);
    eq.schedule(b, 200);
    eq.simulate();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(EventQueueTest, SameTickOrderedByPriority)
{
    EventQueue eq;
    std::vector<int> order;
    EventFunctionWrapper low([&] { order.push_back(2); }, "low",
                             Event::kStatsPriority);
    EventFunctionWrapper high([&] { order.push_back(1); }, "high",
                              Event::kResponsePriority);
    eq.schedule(low, 50);
    eq.schedule(high, 50);
    eq.simulate();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(EventQueueTest, SameTickSamePriorityFifo)
{
    EventQueue eq;
    std::vector<int> order;
    EventFunctionWrapper a([&] { order.push_back(1); }, "a");
    EventFunctionWrapper b([&] { order.push_back(2); }, "b");
    EventFunctionWrapper c([&] { order.push_back(3); }, "c");
    eq.schedule(a, 10);
    eq.schedule(b, 10);
    eq.schedule(c, 10);
    eq.simulate();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(EventQueueTest, DescheduleRemovesEvent)
{
    EventQueue eq;
    bool fired = false;
    EventFunctionWrapper ev([&] { fired = true; }, "ev");
    eq.schedule(ev, 10);
    eq.deschedule(ev);
    EXPECT_FALSE(ev.scheduled());
    eq.simulate();
    EXPECT_FALSE(fired);
}

TEST_F(EventQueueTest, RescheduleMovesEvent)
{
    EventQueue eq;
    Tick fired_at = 0;
    EventFunctionWrapper ev([&] { fired_at = eq.curTick(); }, "ev");
    eq.schedule(ev, 10);
    eq.reschedule(ev, 500);
    eq.simulate();
    EXPECT_EQ(fired_at, 500u);
}

TEST_F(EventQueueTest, RescheduleWorksOnUnscheduledEvent)
{
    EventQueue eq;
    bool fired = false;
    EventFunctionWrapper ev([&] { fired = true; }, "ev");
    eq.reschedule(ev, 42);
    eq.simulate();
    EXPECT_TRUE(fired);
}

TEST_F(EventQueueTest, EventsScheduledFromHandlersRun)
{
    EventQueue eq;
    std::vector<Tick> fire_ticks;
    EventFunctionWrapper second(
        [&] { fire_ticks.push_back(eq.curTick()); }, "second");
    EventFunctionWrapper first(
        [&] {
            fire_ticks.push_back(eq.curTick());
            eq.schedule(second, eq.curTick() + 5);
        },
        "first");
    eq.schedule(first, 10);
    eq.simulate();
    EXPECT_EQ(fire_ticks, (std::vector<Tick>{10, 15}));
}

TEST_F(EventQueueTest, SimulateHorizonStopsBeforeLaterEvents)
{
    EventQueue eq;
    bool fired = false;
    EventFunctionWrapper ev([&] { fired = true; }, "ev");
    eq.schedule(ev, 1000);
    Tick end = eq.simulate(500);
    EXPECT_EQ(end, 500u);
    EXPECT_FALSE(fired);
    EXPECT_TRUE(ev.scheduled());
    eq.simulate(1500);
    EXPECT_TRUE(fired);
}

TEST_F(EventQueueTest, SimulateAdvancesToHorizonWhenIdle)
{
    EventQueue eq;
    Tick end = eq.simulate(12345);
    EXPECT_EQ(end, 12345u);
    EXPECT_EQ(eq.curTick(), 12345u);
}

TEST_F(EventQueueTest, SchedulingInPastPanics)
{
    EventQueue eq;
    EventFunctionWrapper mover([] {}, "mover");
    eq.schedule(mover, 100);
    eq.simulate(200);
    EventFunctionWrapper late([] {}, "late");
    EXPECT_THROW(eq.schedule(late, 50), std::runtime_error);
}

TEST_F(EventQueueTest, DoubleSchedulePanics)
{
    EventQueue eq;
    EventFunctionWrapper ev([] {}, "ev");
    eq.schedule(ev, 10);
    EXPECT_THROW(eq.schedule(ev, 20), std::runtime_error);
    eq.deschedule(ev);
}

TEST_F(EventQueueTest, DescheduleUnscheduledPanics)
{
    EventQueue eq;
    EventFunctionWrapper ev([] {}, "ev");
    EXPECT_THROW(eq.deschedule(ev), std::runtime_error);
}

TEST_F(EventQueueTest, ServiceOneOnEmptyPanics)
{
    EventQueue eq;
    EXPECT_THROW(eq.serviceOne(), std::runtime_error);
}

TEST_F(EventQueueTest, CountsServicedEvents)
{
    EventQueue eq;
    EventFunctionWrapper a([] {}, "a");
    EventFunctionWrapper b([] {}, "b");
    eq.schedule(a, 1);
    eq.schedule(b, 2);
    eq.simulate();
    EXPECT_EQ(eq.numEventsServiced(), 2u);
}

TEST_F(EventQueueTest, ManyEventsStressOrdering)
{
    EventQueue eq;
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 1000; ++i) {
        Tick when = static_cast<Tick>((i * 7919) % 4096);
        events.push_back(std::make_unique<EventFunctionWrapper>(
            [&, when] {
                if (eq.curTick() < last)
                    monotonic = false;
                last = eq.curTick();
                EXPECT_EQ(eq.curTick(), when);
            },
            "stress"));
        eq.schedule(*events.back(), when);
    }
    eq.simulate();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(eq.numEventsServiced(), 1000u);
}

TEST_F(EventQueueTest, SimulatorRunsStartupOnce)
{
    Simulator sim;
    struct Obj : SimObject
    {
        using SimObject::SimObject;
        int startups = 0;
        void startup() override { ++startups; }
    };
    Obj obj(sim, "obj");
    sim.run(100);
    sim.run(200);
    EXPECT_EQ(obj.startups, 1);
    EXPECT_EQ(sim.curTick(), 200u);
}

TEST_F(EventQueueTest, SimObjectSchedulesOnSharedQueue)
{
    Simulator sim;
    struct Obj : SimObject
    {
        using SimObject::SimObject;
        Tick fired = 0;
        EventFunctionWrapper ev{[this] { fired = curTick(); }, "ev"};
        void startup() override { schedule(ev, 77); }
    };
    Obj obj(sim, "obj");
    sim.run(100);
    EXPECT_EQ(obj.fired, 77u);
}


/**
 * A periodic event that logs its firings only while awake. In ticking
 * mode it reschedules itself every period, awake or not: the
 * reference. In parked mode it parks whenever it falls asleep, so the
 * queue elides its sleeping firings; wake() unparks it and counts
 * them. Both modes must produce the same log and the same count.
 */
struct Ticker
{
    Ticker(EventQueue &eq, std::vector<std::string> &log,
           const std::string &name, Tick period, bool park_mode,
           Event::Priority prio = Event::kDefaultPriority)
        : eq(eq), log(log), period(period), parkMode(park_mode),
          ev([this] { fire(); }, name, prio)
    {}

    ~Ticker()
    {
        if (ev.scheduled())
            eq.deschedule(ev);
    }

    void
    start(Tick first)
    {
        if (parkMode)
            eq.park(ev, first, period);
        else
            eq.schedule(ev, first);
    }

    void
    fire()
    {
        if (awake)
            log.push_back(ev.name() + "@" + std::to_string(eq.curTick()));
        else
            ++asleep;
        if (parkMode && !awake)
            eq.park(ev, eq.curTick() + period, period);
        else
            eq.schedule(ev, eq.curTick() + period);
    }

    void
    wake()
    {
        if (ev.parked())
            asleep += eq.unpark(ev);
        awake = true;
    }

    EventQueue &eq;
    std::vector<std::string> &log;
    Tick period;
    bool parkMode;
    bool awake = false;
    std::uint64_t asleep = 0;
    EventFunctionWrapper ev;
};

/** An event that logs itself, then runs @p then. */
std::unique_ptr<EventFunctionWrapper>
logger(EventQueue &eq, std::vector<std::string> &log,
       const std::string &name, std::function<void()> then = [] {},
       Event::Priority prio = Event::kDefaultPriority)
{
    return std::make_unique<EventFunctionWrapper>(
        [&eq, &log, name, then] {
            log.push_back(name + "@" + std::to_string(eq.curTick()));
            then();
        },
        name, prio);
}

struct ParkRun
{
    std::vector<std::string> log;
    std::uint64_t asleep = 0;
    Tick end = 0;
    std::uint64_t serviced = 0;
};

/**
 * A ticker of period 10 from tick 10, asleep, and two same-priority
 * events at its tick 50: `before` scheduled at the start (ahead of
 * the ticker's slot there) and `after` scheduled at tick 45 (behind
 * it). @p waker names the event that wakes the ticker.
 */
ParkRun
sameTickRun(bool park_mode, const std::string &waker)
{
    EventQueue eq;
    ParkRun r;
    Ticker t(eq, r.log, "tick", 10, park_mode);
    auto wake_if = [&](const std::string &name) {
        return [&t, &waker, name] {
            if (waker == name)
                t.wake();
        };
    };
    auto before = logger(eq, r.log, "before", wake_if("before"));
    auto after = logger(eq, r.log, "after", wake_if("after"));
    auto resp = logger(eq, r.log, "resp", wake_if("resp"),
                       Event::kResponsePriority);
    auto late = logger(eq, r.log, "late",
                       [&] { eq.schedule(*after, 50); });
    t.start(10);
    eq.schedule(*before, 50);
    eq.schedule(*late, 45);
    eq.schedule(*resp, 50);
    r.end = eq.simulate(80);
    r.asleep = t.asleep;
    return r;
}

TEST_F(EventQueueTest, ParkedSlotKeepsItsPlaceAmongSameTickEvents)
{
    for (const char *waker : {"before", "after", "resp"}) {
        SCOPED_TRACE(waker);
        ParkRun ref = sameTickRun(false, waker);
        ParkRun got = sameTickRun(true, waker);
        EXPECT_EQ(got.log, ref.log);
        EXPECT_EQ(got.asleep, ref.asleep);
        EXPECT_EQ(got.end, ref.end);
    }
    // Woken ahead of its slot at 50 it fires at 50; woken behind it,
    // the firing at 50 was already elided and the next is at 60.
    EXPECT_EQ(sameTickRun(true, "before").log,
              (std::vector<std::string>{"late@45", "resp@50",
                                        "before@50", "tick@50",
                                        "after@50",
                                        "tick@60", "tick@70",
                                        "tick@80"}));
    EXPECT_EQ(sameTickRun(true, "before").asleep, 4u);
    EXPECT_EQ(sameTickRun(true, "after").log,
              (std::vector<std::string>{"late@45", "resp@50",
                                        "before@50", "after@50",
                                        "tick@60",
                                        "tick@70", "tick@80"}));
    EXPECT_EQ(sameTickRun(true, "after").asleep, 5u);
}

/**
 * Wake the ticker at its own slot's tick from a priority -20 event (a
 * response) and from a priority-0 event scheduled behind the slot (a
 * crossbar retry).
 */
ParkRun
wakeAtSlotRun(bool park_mode, Event::Priority prio)
{
    EventQueue eq;
    ParkRun r;
    Ticker t(eq, r.log, "tick", 4, park_mode);
    auto waker = logger(eq, r.log, "waker", [&] { t.wake(); }, prio);
    auto arm = logger(eq, r.log, "arm",
                      [&] { eq.schedule(*waker, 20); });
    t.start(4);
    eq.schedule(*arm, 17);
    r.end = eq.simulate(30);
    r.asleep = t.asleep;
    r.serviced = eq.numEventsServiced();
    return r;
}

TEST_F(EventQueueTest, UnparkFromResponseAndDefaultPriorityAtSlotTick)
{
    for (Event::Priority prio :
         {Event::kResponsePriority, Event::kDefaultPriority}) {
        SCOPED_TRACE(prio);
        ParkRun ref = wakeAtSlotRun(false, prio);
        ParkRun got = wakeAtSlotRun(true, prio);
        EXPECT_EQ(got.log, ref.log);
        EXPECT_EQ(got.asleep, ref.asleep);
        // Only the elided firings are missing from the service count.
        EXPECT_EQ(got.serviced + got.asleep, ref.serviced);
    }
    EXPECT_EQ(wakeAtSlotRun(true, Event::kResponsePriority).log,
              (std::vector<std::string>{"arm@17", "waker@20", "tick@20",
                                        "tick@24", "tick@28"}));
    EXPECT_EQ(wakeAtSlotRun(true, Event::kDefaultPriority).log,
              (std::vector<std::string>{"arm@17", "waker@20", "tick@24",
                                        "tick@28"}));
}

TEST_F(EventQueueTest, ParkedEventAcrossSimulateHorizons)
{
    // Horizons on a slot, just before one and just after one: each
    // leaves the parked slot exactly where the ticking event stands.
    for (bool park_mode : {false, true}) {
        SCOPED_TRACE(park_mode);
        EventQueue eq;
        std::vector<std::string> log;
        Ticker t(eq, log, "tick", 10, park_mode);
        t.start(5);
        EXPECT_EQ(eq.simulate(25), 25u);
        EXPECT_EQ(t.ev.when(), 35u);
        EXPECT_EQ(eq.nextTick(), 35u);
        EXPECT_EQ(eq.simulate(34), 34u);
        EXPECT_EQ(t.ev.when(), 35u);
        EXPECT_EQ(eq.simulate(36), 36u);
        EXPECT_EQ(t.ev.when(), 45u);
        // A wake between horizons, from outside any event.
        t.wake();
        EXPECT_EQ(t.asleep, 4u);
        EXPECT_FALSE(t.ev.parked());
        EXPECT_EQ(eq.simulate(60), 60u);
        EXPECT_EQ(log, (std::vector<std::string>{"tick@45", "tick@55"}));
    }
}

TEST_F(EventQueueTest, ParkedEventCountsAsPending)
{
    EventQueue eq;
    std::vector<std::string> log;
    Ticker t(eq, log, "tick", 3, true);
    t.start(7);
    EXPECT_TRUE(t.ev.scheduled());
    EXPECT_TRUE(t.ev.parked());
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.nextTick(), 7u);
    EXPECT_EQ(eq.anyParked(), &t.ev);

    EventFunctionWrapper other([] {}, "other");
    eq.schedule(other, 5);
    EXPECT_EQ(eq.size(), 2u);
    EXPECT_EQ(eq.nextTick(), 5u);

    // serviceOne() takes the earliest: the real event, then one elided
    // firing at a time, each advancing curTick to the slot it passes.
    eq.serviceOne();
    EXPECT_EQ(eq.curTick(), 5u);
    eq.serviceOne();
    EXPECT_EQ(eq.curTick(), 7u);
    EXPECT_EQ(eq.nextTick(), 10u);
    eq.serviceOne();
    EXPECT_EQ(eq.curTick(), 10u);
    EXPECT_EQ(eq.numEventsServiced(), 1u);
    EXPECT_EQ(eq.takeElided(t.ev), 2u);
    EXPECT_EQ(eq.takeElided(t.ev), 0u);
    EXPECT_TRUE(t.ev.parked());

    eq.simulate(20);
    EXPECT_EQ(eq.nextTick(), 22u);
    EXPECT_EQ(eq.unpark(t.ev), 3u);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.nextTick(), 22u);
    EXPECT_EQ(eq.anyParked(), nullptr);

    // With nothing else pending it would fire forever.
    eq.deschedule(t.ev);
    t.start(eq.curTick() + 3);
    EXPECT_THROW(eq.simulate(), std::runtime_error);
}

TEST_F(EventQueueTest, DescheduleParkedEvent)
{
    EventQueue eq;
    std::vector<std::string> log;
    Ticker a(eq, log, "a", 5, true);
    Ticker b(eq, log, "b", 7, true);
    a.start(5);
    b.start(3);
    EXPECT_EQ(eq.nextTick(), 3u);
    EXPECT_THROW(eq.reschedule(b.ev, 9), std::runtime_error);
    EXPECT_THROW(eq.schedule(b.ev, 9), std::runtime_error);
    eq.deschedule(b.ev);
    EXPECT_FALSE(b.ev.scheduled());
    EXPECT_FALSE(b.ev.parked());
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.nextTick(), 5u);
    EXPECT_THROW(eq.unpark(b.ev), std::runtime_error);

    eq.simulate(50);
    EXPECT_EQ(a.ev.when(), 55u);
    EXPECT_EQ(eq.takeElided(a.ev), 10u);
    // A descheduled event can be scheduled again as usual.
    b.start(60);
    EXPECT_EQ(eq.size(), 2u);
    EXPECT_EQ(eq.nextTick(), 55u);
}

/**
 * Several tickers of different periods and priorities, random events
 * that wake them, put them to sleep and schedule more events, and
 * random simulate() horizons: the parked run must log, count and end
 * exactly like the ticking run. @p aligned puts every ticker and event
 * on a common grid, so parked slots of different periods and of
 * different elided counts often meet in one (tick, priority) class
 * and are woken there together.
 */
ParkRun
randomParkRun(bool park_mode, std::uint64_t seed, bool aligned)
{
    EventQueue eq;
    ParkRun r;
    std::mt19937_64 rng(seed);
    auto draw = [&rng](std::uint64_t n) { return rng() % n; };

    std::vector<std::unique_ptr<Ticker>> tickers;
    const Tick periods[2][5] = {{5, 5, 3, 7, 10}, {2, 4, 4, 6, 3}};
    const Event::Priority prios[2][5] = {{0, 0, -5, 0, 5},
                                         {0, 0, 0, 0, 0}};
    for (unsigned i = 0; i < 5; ++i) {
        tickers.push_back(std::make_unique<Ticker>(
            eq, r.log, "t" + std::to_string(i), periods[aligned][i],
            park_mode, prios[aligned][i]));
        tickers.back()->start(aligned ? 12 * (1 + draw(2)) : 1 + draw(10));
    }

    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    std::function<void(Tick)> spawn = [&](Tick from) {
        const Event::Priority prio = draw(3) == 0 ? -20
                                     : draw(2) == 0 ? 5
                                                    : 0;
        const std::string name = "e" + std::to_string(events.size());
        events.push_back(logger(
            eq, r.log, name,
            [&] {
                for (int n = 0; n < (aligned ? 2 : 1); ++n) {
                    Ticker &t = *tickers[draw(tickers.size())];
                    if (draw(3) == 0)
                        t.awake = false;
                    else
                        t.wake();
                }
                if (events.size() < 400)
                    spawn(eq.curTick());
            },
            prio));
        eq.schedule(*events.back(),
                    aligned ? from + 12 * (1 + draw(3)) : from + draw(40));
    };
    for (int i = 0; i < 8; ++i)
        spawn(0);

    for (Tick until = 0; until < 3000;) {
        until += 1 + draw(97);
        r.end = eq.simulate(until);
    }
    for (auto &t : tickers) {
        if (t->ev.parked())
            t->asleep += eq.takeElided(t->ev);
        r.asleep = r.asleep * 31 + t->asleep;
    }
    for (auto &e : events)
        if (e->scheduled())
            eq.deschedule(*e);
    return r;
}

TEST_F(EventQueueTest, ParkedRunsMatchTickingRunsOnRandomTraffic)
{
    for (bool aligned : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << "aligned " << aligned << " seed " << seed);
            ParkRun ref = randomParkRun(false, seed, aligned);
            ParkRun got = randomParkRun(true, seed, aligned);
            ASSERT_GT(ref.log.size(), 100u);
            EXPECT_EQ(got.log, ref.log);
            EXPECT_EQ(got.asleep, ref.asleep);
            EXPECT_EQ(got.end, ref.end);
        }
    }
}

TEST_F(EventQueueTest, CheckpointWithParkedEventIsFatal)
{
    Simulator sim;
    struct Obj : SimObject
    {
        using SimObject::SimObject;
        EventFunctionWrapper ev{[] {}, "obj.idleTick"};
        void startup() override { eventq().park(ev, 10, 10); }
        ~Obj() override { eventq().deschedule(ev); }
    };
    Obj obj(sim, "obj");
    sim.run(100);
    std::ostringstream os;
    try {
        ckpt::save(sim, os);
        FAIL() << "checkpoint of a parked event did not fail";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "fatal: checkpoint: event 'obj.idleTick' is parked"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace dramctrl
