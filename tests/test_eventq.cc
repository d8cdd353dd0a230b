/**
 * @file
 * Unit tests for the discrete-event kernel: scheduling, ordering,
 * priorities, rescheduling, and simulate() horizon semantics.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

} // namespace
} // namespace dramctrl
