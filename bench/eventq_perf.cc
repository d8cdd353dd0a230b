/**
 * @file
 * Microbenchmark of the event-queue agenda itself: raw
 * schedule/service throughput, reschedule churn, and deschedule-heavy
 * mixes across agenda depths, for the intrusive binary heap. This
 * isolates the agenda kernel from the DRAM model so agenda regressions
 * show up directly.
 *
 * Usage: eventq_perf [--json FILE]
 *
 * With --json the results are also written as a JSON array (one object
 * per measurement: name, agenda, depth, ops, ops_per_sec,
 * host_seconds, sim_ticks) for the CI perf-smoke artifact.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "sim/eventq.hh"

using namespace dramctrl;

namespace {

/** An event that does nothing: all time measured is agenda time. */
struct NopEvent : Event
{
    void process() override {}
    std::string name() const override { return "nop"; }
};

struct Measurement
{
    std::string name;
    std::size_t depth;
    std::uint64_t ops;
    double hostSeconds;
    double opsPerSec;
    Tick simTicks;
};

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Events must leave the agenda before their storage dies. */
template <typename Events>
void
drain(EventQueue &eq, Events &events)
{
    for (auto &ev : events)
        if (ev->scheduled())
            eq.deschedule(*ev);
}

/** An event that immediately re-enters the agenda when serviced. */
struct SelfSchedulingEvent : Event
{
    SelfSchedulingEvent(EventQueue &q, std::mt19937 &r)
        : eq(&q), rng(&r)
    {}

    void process() override
    {
        eq->schedule(*this, eq->curTick() + 1 + (*rng)() % 10000);
    }

    std::string name() const override { return "self-scheduling"; }

    EventQueue *eq;
    std::mt19937 *rng;
};

/**
 * Steady-state service+schedule cycle at a fixed agenda depth: every
 * serviced event goes straight back a pseudo-random distance into the
 * future, like a simulator in flight.
 */
Measurement
benchServiceSchedule(std::size_t depth, std::uint64_t ops)
{
    EventQueue eq;
    std::mt19937 rng(42);
    std::vector<std::unique_ptr<SelfSchedulingEvent>> events;
    for (std::size_t i = 0; i < depth; ++i) {
        events.push_back(
            std::make_unique<SelfSchedulingEvent>(eq, rng));
        eq.schedule(*events.back(), 1 + rng() % 10000);
    }

    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i)
        eq.serviceOne();
    double secs = secondsSince(t0);
    Tick end = eq.curTick();
    drain(eq, events);
    return {"service_schedule", depth, ops, secs,
            static_cast<double>(ops) / secs, end};
}

/** Pure reschedule churn: move random pending events, never service. */
Measurement
benchReschedule(std::size_t depth, std::uint64_t ops)
{
    EventQueue eq;
    std::vector<std::unique_ptr<NopEvent>> events;
    std::mt19937 rng(43);
    for (std::size_t i = 0; i < depth; ++i) {
        events.push_back(std::make_unique<NopEvent>());
        eq.schedule(*events.back(), 1 + rng() % 10000);
    }

    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i)
        eq.reschedule(*events[rng() % depth], 1 + rng() % 10000);
    double secs = secondsSince(t0);
    Tick end = eq.curTick();
    drain(eq, events);
    return {"reschedule", depth, ops, secs,
            static_cast<double>(ops) / secs, end};
}

/** Schedule/deschedule pairs: the controller's cancel-heavy pattern. */
Measurement
benchScheduleDeschedule(std::size_t depth, std::uint64_t ops)
{
    EventQueue eq;
    std::vector<std::unique_ptr<NopEvent>> events;
    std::mt19937 rng(44);
    // Half the population stays pending as background load.
    for (std::size_t i = 0; i < depth; ++i) {
        events.push_back(std::make_unique<NopEvent>());
        if (i % 2 == 0)
            eq.schedule(*events.back(), 1 + rng() % 10000);
    }

    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        NopEvent &ev = *events[rng() % depth];
        if (ev.scheduled())
            eq.deschedule(ev);
        else
            eq.schedule(ev, 1 + rng() % 10000);
    }
    double secs = secondsSince(t0);
    Tick end = eq.curTick();
    drain(eq, events);
    return {"schedule_deschedule", depth, ops, secs,
            static_cast<double>(ops) / secs, end};
}

void
writeJson(const char *path, const std::vector<Measurement> &rows)
{
    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "eventq_perf: cannot open %s\n", path);
        return;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Measurement &m = rows[i];
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"depth\": %zu, "
                     "\"ops\": %llu, \"ops_per_sec\": %.0f, "
                     "\"host_seconds\": %.6f, \"sim_ticks\": %llu}%s\n",
                     m.name.c_str(), m.depth,
                     static_cast<unsigned long long>(m.ops), m.opsPerSec,
                     m.hostSeconds,
                     static_cast<unsigned long long>(m.simTicks),
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
    }

    const std::size_t kDepths[] = {16, 256, 4096, 65536};
    const std::uint64_t kOps = 2'000'000;

    std::printf("eventq_perf: agenda microbenchmark (binary heap)\n");
    std::printf("%-20s %8s %12s %10s\n", "benchmark", "depth",
                "ops/sec", "host_s");

    std::vector<Measurement> rows;
    for (std::size_t depth : kDepths) {
        rows.push_back(benchServiceSchedule(depth, kOps));
        rows.push_back(benchReschedule(depth, kOps));
        rows.push_back(benchScheduleDeschedule(depth, kOps));
    }
    for (const Measurement &m : rows)
        std::printf("%-20s %8zu %12.0f %10.4f\n", m.name.c_str(),
                    m.depth, m.opsPerSec, m.hostSeconds);

    if (json_path != nullptr)
        writeJson(json_path, rows);
    return 0;
}
