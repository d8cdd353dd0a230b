#include "sim/eventq.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <tuple>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace dramctrl {

EventQueue::EventQueue()
{
    heap_.reserve(64);
    registerTickSource(this);
}

EventQueue::~EventQueue()
{
    unregisterTickSource(this);
}

void
EventQueue::siftUp(std::size_t slot)
{
    Event *ev = heap_[slot];
    while (slot > 0) {
        std::size_t parent = (slot - 1) / 2;
        if (!before(ev, heap_[parent]))
            break;
        heap_[slot] = heap_[parent];
        heap_[slot]->heapSlot_ = slot;
        slot = parent;
    }
    heap_[slot] = ev;
    ev->heapSlot_ = slot;
}

void
EventQueue::siftDown(std::size_t slot)
{
    Event *ev = heap_[slot];
    const std::size_t n = heap_.size();
    while (true) {
        std::size_t child = 2 * slot + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap_[child + 1], heap_[child]))
            ++child;
        if (!before(heap_[child], ev))
            break;
        heap_[slot] = heap_[child];
        heap_[slot]->heapSlot_ = slot;
        slot = child;
    }
    heap_[slot] = ev;
    ev->heapSlot_ = slot;
}

void
EventQueue::removeAt(std::size_t slot)
{
    Event *moved = heap_.back();
    heap_.pop_back();
    if (slot < heap_.size()) {
        heap_[slot] = moved;
        moved->heapSlot_ = slot;
        // The moved-in element comes from an arbitrary subtree, so it may
        // need to travel either way.
        siftDown(slot);
        siftUp(moved->heapSlot_);
    }
}

void
EventQueue::schedule(Event &ev, Tick when)
{
    if (ev.scheduled_)
        panic("event '%s' scheduled twice (already at %llu, now %llu)",
              ev.name().c_str(), static_cast<unsigned long long>(ev.when_),
              static_cast<unsigned long long>(when));
    if (when < curTick_)
        panic("event '%s' scheduled in the past (%llu < now %llu)",
              ev.name().c_str(), static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));

    ev.when_ = when;
    ev.seq_ = nextSeq_++;
    ev.scheduled_ = true;
    heap_.push_back(&ev);
    siftUp(heap_.size() - 1);
}

void
EventQueue::deschedule(Event &ev)
{
    if (!ev.scheduled_)
        panic("deschedule of unscheduled event '%s'", ev.name().c_str());
    if (ev.parked_)
        removeParked(ev);
    else
        removeAt(ev.heapSlot_);
    ev.heapSlot_ = Event::kNoSlot;
    ev.scheduled_ = false;
}

void
EventQueue::reschedule(Event &ev, Tick when)
{
    if (!ev.scheduled_) {
        schedule(ev, when);
        return;
    }
    if (ev.parked_)
        panic("reschedule of parked event '%s' (unpark it first)",
              ev.name().c_str());
    if (when < curTick_)
        panic("event '%s' rescheduled into the past (%llu < now %llu)",
              ev.name().c_str(), static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));

    // In place: take a fresh sequence number (a reschedule joins the
    // back of its new tick/priority class, like deschedule+schedule
    // always did) and sift from the current slot.
    ev.when_ = when;
    ev.seq_ = nextSeq_++;
    siftDown(ev.heapSlot_);
    siftUp(ev.heapSlot_);
}

void
EventQueue::park(Event &ev, Tick when, Tick period)
{
    if (ev.scheduled_)
        panic("event '%s' parked while scheduled (at %llu)",
              ev.name().c_str(), static_cast<unsigned long long>(ev.when_));
    if (when < curTick_)
        panic("event '%s' parked in the past (%llu < now %llu)",
              ev.name().c_str(), static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));
    if (period == 0)
        panic("event '%s' parked with a zero period", ev.name().c_str());

    ev.when_ = when;
    ev.seq_ = nextSeq_++;
    ev.scheduled_ = true;
    ev.parked_ = true;
    ev.heapSlot_ = parked_.size();
    parked_.push_back({&ev, period, 0});
    parkedNext_ = std::min(parkedNext_, when);
}

void
EventQueue::removeParked(Event &ev)
{
    parked_[ev.heapSlot_] = parked_.back();
    parked_[ev.heapSlot_].ev->heapSlot_ = ev.heapSlot_;
    parked_.pop_back();
    ev.parked_ = false;

    parkedNext_ = kMaxTick;
    for (const Parked &p : parked_)
        parkedNext_ = std::min(parkedNext_, p.ev->when_);
}

std::uint64_t
EventQueue::unpark(Event &ev)
{
    const std::uint64_t elided = takeElided(ev);
    // passParked() has moved the slot past every event serviced so
    // far, so it re-enters the heap exactly where a ticking event
    // would sit: same tick, priority and sequence number.
    removeParked(ev);
    heap_.push_back(&ev);
    siftUp(heap_.size() - 1);
    return elided;
}

std::uint64_t
EventQueue::takeElided(Event &ev)
{
    if (!ev.parked_)
        panic("event '%s' is not parked", ev.name().c_str());
    return std::exchange(parked_[ev.heapSlot_].elided, 0);
}

void
EventQueue::passParked(Tick when, int priority, std::uint64_t seq)
{
    passed_.clear();
    Tick next = kMaxTick;
    for (Parked &entry : parked_) {
        Event *ev = entry.ev;
        const Tick t = ev->when_;
        const int p = ev->priority_;
        if (std::tie(t, p, ev->seq_) < std::tie(when, priority, seq)) {
            // The current slot precedes the target. Every later slot
            // takes a sequence number drawn after the target was
            // scheduled, so it precedes the target only by tick and
            // priority.
            const Tick span = when - t;
            const std::uint64_t k =
                1 + (p < priority ? span / entry.period
                     : span == 0  ? 0
                                  : (span - 1) / entry.period);
            ev->when_ = t + k * entry.period;
            entry.elided += k;
            passed_.emplace_back(&entry, k);
        }
        next = std::min(next, ev->when_);
    }
    parkedNext_ = next;

    // Hand out fresh sequence numbers in the order the elided firings
    // would have rescheduled themselves. Only slots that end in the
    // same (tick, priority) class compare by sequence number; there the
    // last firing that happened earlier came first: a longer period's
    // (its last firing was at an earlier tick), else fewer firings
    // (equal periods keep their cyclic order), else the older slot.
    if (passed_.size() > 1) {
        std::sort(passed_.begin(), passed_.end(),
                  [](const auto &a, const auto &b) {
                      const Event *x = a.first->ev;
                      const Event *y = b.first->ev;
                      if (x->when_ != y->when_)
                          return x->when_ < y->when_;
                      if (x->priority_ != y->priority_)
                          return x->priority_ < y->priority_;
                      if (a.first->period != b.first->period)
                          return a.first->period > b.first->period;
                      if (a.second != b.second)
                          return a.second < b.second;
                      return x->seq_ < y->seq_;
                  });
    }
    for (const auto &moved : passed_)
        moved.first->ev->seq_ = nextSeq_++;
}

std::uint64_t
EventQueue::orderOf(const Event &ev) const
{
    if (!ev.scheduled_)
        panic("orderOf() on unscheduled event '%s'", ev.name().c_str());
    if (ev.parked_)
        panic("orderOf() on parked event '%s'", ev.name().c_str());
    std::uint64_t rank = 0;
    for (const Event *other : heap_)
        if (other != &ev && before(other, &ev))
            ++rank;
    return rank;
}

void
EventQueue::restoreState(Tick when, std::uint64_t num_serviced)
{
    if (!empty())
        panic("EventQueue::restoreState() with %zu events pending",
              size());
    curTick_ = when;
    numServiced_ = num_serviced;
}

Tick
EventQueue::nextTick() const
{
    return std::min(heap_.empty() ? kMaxTick : heap_.front()->when_,
                    parkedNext_);
}

inline void
EventQueue::serviceFront()
{
    Event *ev = heap_.front();
    if (ev->when_ >= parkedNext_)
        passParked(ev->when_, ev->priority_, ev->seq_);
    removeAt(0);
    ev->heapSlot_ = Event::kNoSlot;
    ev->scheduled_ = false;
    curTick_ = ev->when_;
    ++numServiced_;

    TRACE(EventQ, "service '%s' (%zu pending)", ev->name().c_str(),
          size());

    if (profiler_ != nullptr) {
        auto t0 = std::chrono::steady_clock::now();
        ev->process();
        auto t1 = std::chrono::steady_clock::now();
        profiler_->record(
            *ev, std::chrono::duration<double>(t1 - t0).count());
    } else {
        ev->process();
    }
}

void
EventQueue::serviceOne()
{
    if (!parked_.empty()) {
        const Event *first = parked_.front().ev;
        for (const Parked &p : parked_)
            if (before(p.ev, first))
                first = p.ev;
        if (heap_.empty() || before(first, heap_.front())) {
            // Elide exactly that one firing.
            curTick_ = first->when_;
            passParked(first->when_, first->priority_, first->seq_ + 1);
            return;
        }
    }
    if (heap_.empty())
        panic("serviceOne() on an empty event queue");
    serviceFront();
}

Tick
EventQueue::simulate(Tick until)
{
    while (!heap_.empty() && heap_.front()->when_ <= until)
        serviceFront();

    // Parked events would fire up to the horizon on their own. With no
    // horizon and nothing else pending they would fire forever.
    if (!parked_.empty() && parkedNext_ <= until) {
        if (until == kMaxTick)
            panic("simulate() without a horizon would run parked event "
                  "'%s' forever", parked_.front().ev->name().c_str());
        passParked(until, std::numeric_limits<int>::max(),
                   std::numeric_limits<std::uint64_t>::max());
    }

    // Advance to the horizon so that callers measuring elapsed simulated
    // time across an idle tail see the full window. An infinite horizon
    // (run-to-exhaustion) leaves curTick at the last event.
    if (until != kMaxTick && until > curTick_)
        curTick_ = until;

    return curTick_;
}

} // namespace dramctrl
