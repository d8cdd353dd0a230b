/**
 * @file
 * Event base class for the discrete-event kernel.
 *
 * An Event is anything that can be scheduled on an EventQueue at an
 * absolute tick. When the queue reaches that tick the event's process()
 * method runs. Events are ordered by (tick, priority, insertion order),
 * so two events at the same tick with the same priority execute in the
 * order they were scheduled.
 *
 * This is the mechanism the paper's modelling technique (Section II-D)
 * rests on: the DRAM controller only schedules events at ticks where its
 * state changes, and the queue skips all the time in between.
 */

#ifndef DRAMCTRL_SIM_EVENT_H
#define DRAMCTRL_SIM_EVENT_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "sim/types.hh"

namespace dramctrl {

class EventQueue;

/**
 * An occurrence scheduled at an absolute simulated tick.
 */
class Event
{
  public:
    /** Relative order among events at the same tick; lower runs first. */
    using Priority = std::int16_t;

    /** Responses are delivered before new requests are considered. */
    static constexpr Priority kResponsePriority = -20;
    /** DRAM refresh preempts normal request processing at a tick. */
    static constexpr Priority kRefreshPriority = -10;
    /** Default priority for ordinary model events. */
    static constexpr Priority kDefaultPriority = 0;
    /** Statistic dump / bookkeeping events run after model events. */
    static constexpr Priority kStatsPriority = 20;

    explicit Event(Priority priority = kDefaultPriority)
        : priority_(priority)
    {}

    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the queue when simulated time reaches when(). */
    virtual void process() = 0;

    /** Human-readable identifier used in error messages. */
    virtual std::string name() const { return "anonymous event"; }

    /** Tick this event is scheduled for (valid only if scheduled()). */
    Tick when() const { return when_; }

    /** Tie-break priority at equal ticks. */
    Priority priority() const { return priority_; }

    /** @return true while the event sits on a queue. */
    bool scheduled() const { return scheduled_; }

    /** @return true while the event is parked (EventQueue::park). */
    bool parked() const { return parked_; }

  private:
    friend class EventQueue;

    /** Sentinel heap slot for an unscheduled event. */
    static constexpr std::size_t kNoSlot = ~std::size_t(0);

    Tick when_ = 0;
    Priority priority_;
    std::uint64_t seq_ = 0;
    /**
     * This event's slot in the owning queue's binary heap, or in its
     * parked list while parked.
     */
    std::size_t heapSlot_ = kNoSlot;
    bool scheduled_ = false;
    bool parked_ = false;
};

/**
 * Convenience event that invokes a bound callable, mirroring gem5's
 * EventFunctionWrapper. This keeps model classes free of one-off Event
 * subclasses.
 */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> callback, std::string name,
                         Priority priority = kDefaultPriority)
        : Event(priority), callback_(std::move(callback)),
          name_(std::move(name))
    {}

    void process() override { callback_(); }

    std::string name() const override { return name_; }

  private:
    std::function<void()> callback_;
    std::string name_;
};

} // namespace dramctrl

#endif // DRAMCTRL_SIM_EVENT_H
