/**
 * @file
 * The event queue: an ordered agenda of future events.
 */

#ifndef DRAMCTRL_SIM_EVENTQ_H
#define DRAMCTRL_SIM_EVENTQ_H

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event.hh"
#include "sim/types.hh"

namespace dramctrl {

/**
 * Observer of serviced events, attached with EventQueue::setProfiler.
 * The queue calls record() after each event's process() returns; the
 * hook costs one branch when no profiler is attached.
 */
class EventQueueProfiler
{
  public:
    virtual ~EventQueueProfiler() = default;

    /** @param host_seconds wall-clock time process() took. */
    virtual void record(const Event &ev, double host_seconds) = 0;
};

/**
 * A discrete-event agenda.
 *
 * The queue owns simulated time: curTick() only advances when an event is
 * serviced (or when simulate() runs past the last event). Events are not
 * owned by the queue; the scheduling model object keeps them as members,
 * which is safe because an object never outlives its own events.
 *
 * The agenda is an intrusive binary min-heap over a contiguous
 * vector: each Event carries its own slot, so schedule, deschedule and
 * reschedule are all O(log n) sift operations with no per-operation
 * allocation (the backing vector only grows to the agenda's high-water
 * mark). Ordering is (when, priority, seq): two events at the same tick
 * and priority run in schedule order, and rescheduling re-enters the
 * event at the back of its tick/priority class, exactly as the previous
 * tree-based agenda behaved.
 *
 * A periodic event whose next firings would change nothing but a
 * cycle count can be parked instead of scheduled (park()). The queue
 * keeps a parked event's (when, priority, seq) slot beside the heap.
 * Whenever service order passes that slot, the slot moves one period
 * on and takes the next sequence number, exactly as the event would
 * have done by rescheduling itself, but with no heap operation and no
 * callback. unpark() returns the event to the heap at its current
 * slot, so the events that follow run in the same order as if it had
 * ticked all along.
 */
class EventQueue
{
  public:
    /** Registers the queue as its thread's tick source (logging.hh). */
    EventQueue();

    /** Unregisters, so a dead queue is never left in the registry. */
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p ev at absolute tick @p when. Scheduling in the past or
     * double-scheduling is a modelling bug and panics.
     */
    void schedule(Event &ev, Tick when);

    /** Remove a scheduled event from the agenda. */
    void deschedule(Event &ev);

    /** Move an already- or not-yet-scheduled event to @p when. */
    void reschedule(Event &ev, Tick when);

    /**
     * Schedule @p ev at @p when as a parked event that would fire
     * every @p period ticks from then on, each firing doing nothing
     * but rescheduling itself. The queue elides those firings and
     * counts them; the owner calls unpark() as soon as a firing could
     * do more (e.g. when a response arrives). A parked event counts as
     * scheduled and pending.
     */
    void park(Event &ev, Tick when, Tick period);

    /**
     * Put parked event @p ev back into the heap at the slot it has
     * reached, and return the firings elided since park() (or since
     * the last takeElided()).
     */
    std::uint64_t unpark(Event &ev);

    /**
     * Return and clear the firings of parked event @p ev elided so
     * far, leaving it parked: lets an owner fold them into its
     * statistics before a dump or reset.
     */
    std::uint64_t takeElided(Event &ev);

    /** A parked event, or nullptr when none is parked. */
    const Event *
    anyParked() const
    {
        return parked_.empty() ? nullptr : parked_.front().ev;
    }

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /** @return true when no events are pending (parked ones count). */
    bool empty() const { return heap_.empty() && parked_.empty(); }

    /** Number of pending events, parked ones included. */
    std::size_t size() const { return heap_.size() + parked_.size(); }

    /** Tick of the earliest pending event; kMaxTick when empty. */
    Tick nextTick() const;

    /**
     * Service exactly one event (the earliest), advancing curTick to its
     * tick. When the earliest is a parked slot, that one firing is
     * elided. Panics if the queue is empty.
     */
    void serviceOne();

    /**
     * Run all events with when() <= @p until, then advance curTick to
     * @p until if it is a finite horizon (so back-to-back simulate()
     * calls see monotonic time even across idle stretches).
     *
     * @return the final value of curTick().
     */
    Tick simulate(Tick until = kMaxTick);

    /**
     * Total number of events serviced since construction; elided
     * firings of parked events are not services.
     */
    std::uint64_t numEventsServiced() const { return numServiced_; }

    /**
     * Service rank of scheduled event @p ev: the number of pending
     * events that would run before it. Checkpoints record this so a
     * restore can re-schedule events in the original relative order
     * (fresh sequence numbers then break same-tick ties identically).
     */
    std::uint64_t orderOf(const Event &ev) const;

    /**
     * Reset simulated time and the serviced-event count to the values
     * a checkpoint recorded. Only legal on an empty agenda (restore
     * sets time before any event is re-scheduled).
     */
    void restoreState(Tick when, std::uint64_t num_serviced);

    /**
     * Attach @p profiler (not owned; nullptr detaches) to count and
     * time every serviced event.
     */
    void setProfiler(EventQueueProfiler *profiler)
    {
        profiler_ = profiler;
    }

    EventQueueProfiler *profiler() const { return profiler_; }

  private:
    /** Strict weak order of the agenda: (when, priority, seq). */
    static bool
    before(const Event *a, const Event *b)
    {
        if (a->when_ != b->when_)
            return a->when_ < b->when_;
        if (a->priority_ != b->priority_)
            return a->priority_ < b->priority_;
        return a->seq_ < b->seq_;
    }

    /** Move heap_[slot] up while it precedes its parent. */
    void siftUp(std::size_t slot);
    /** Move heap_[slot] down while a child precedes it. */
    void siftDown(std::size_t slot);
    /** Detach heap_[slot], filling the hole from the heap's back. */
    void removeAt(std::size_t slot);

    /** Service the heap's front event, after passing parked slots. */
    void serviceFront();

    /**
     * Move every parked slot that precedes (@p when, @p priority,
     * @p seq) in service order past it: on by one period per elided
     * firing, with a fresh sequence number.
     */
    void passParked(Tick when, int priority, std::uint64_t seq);

    /** Detach parked event @p ev from parked_. */
    void removeParked(Event &ev);

    /** A parked event (its slot lives in the event) and its count. */
    struct Parked
    {
        Event *ev;
        Tick period;
        /** Firings elided since park() or the last takeElided(). */
        std::uint64_t elided;
    };

    std::vector<Event *> heap_;
    /** Parked events, in no particular order (see park()). */
    std::vector<Parked> parked_;
    /** Earliest tick of a parked slot; kMaxTick when none. */
    Tick parkedNext_ = kMaxTick;
    /** passParked()'s scratch list: each moved entry, firings elided. */
    std::vector<std::pair<const Parked *, std::uint64_t>> passed_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t numServiced_ = 0;
    EventQueueProfiler *profiler_ = nullptr;
};

} // namespace dramctrl

#endif // DRAMCTRL_SIM_EVENTQ_H
