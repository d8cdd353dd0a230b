/**
 * @file
 * perfbench: host-speed benchmark of the simulator.
 *
 * One repetition generates a workload's inputs from the seed, builds a
 * fresh system (both timed as set-up), simulates it to completion
 * (the only phase timed as host speed), checks it and digests its
 * statistics JSON (timed apart, as the stats dump). Repetitions run
 * until --seconds have passed. Simulate time is reported as the upper
 * quartile over them (see kSimTimeQuantile), other times as medians.
 *
 * A repetition fails unless its system drained before the tick
 * budget, every request was completed, and its statistics digest
 * equals that of the first repetition. On hmc64_random an untimed
 * 4-thread run must also reproduce the 1-thread digest. A failed
 * repetition's requests count as failed and its times are not used.
 *
 * --trace 1 adds the per-layer figures: spans recorded around each
 * call into the library, counters read from public statistics, a
 * standalone .dtrc decode pass, and the host-cost ledger (the same
 * seeded traffic in stacked systems).
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --tmpdir DIR [--smoke] [--tamper drain|digest]
 *
 * The last line of stdout is the JSON result.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "systems.hh"
#include "trafficgen/trace_file.hh"

using namespace dramctrl;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Linearly interpolated @p p-quantile of @p v; 0 when empty. */
double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double k = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(k);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (k - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Quantile of the per-repetition simulate times a run reports. On a
 * shared host each CPU runs for seconds at a time at one of two speeds
 * about 2x apart. The median jumps with the share of fast time a run
 * happens to get; the upper quartile stays on the common slower speed
 * and repeats best across runs (README.md has the measurements).
 */
constexpr double kSimTimeQuantile = 0.75;

/**
 * The CPUs this process may run on. Timed repetitions, all
 * single-threaded, are pinned to each in turn, so one run samples
 * every CPU's share of interference instead of whichever CPU the
 * scheduler kept it on.
 */
std::vector<int>
allowedCpus(cpu_set_t &mask)
{
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &mask))
                cpus.push_back(c);
    return cpus;
}

void
pinTo(int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string tmpdir;
    bool smoke = false;
    std::string tamper;
};

/** Work per repetition; --smoke divides it for the package's tests. */
struct Sizes
{
    std::uint64_t replayRecords = 100'000;
    std::uint64_t cycleRecords = 10'000;
    std::uint64_t hmcReqPerGen = 800;
    std::uint64_t fullsysOpsPerCore = 20'000;
    std::uint64_t ledgerRequests = 60'000;
    std::uint64_t ledgerCycleRequests = 10'000;
    std::uint64_t ledgerReqPerGen = 1'000;

    explicit Sizes(bool smoke)
    {
        if (!smoke)
            return;
        for (std::uint64_t *v :
             {&replayRecords, &cycleRecords, &hmcReqPerGen,
              &fullsysOpsPerCore, &ledgerRequests, &ledgerCycleRequests,
              &ledgerReqPerGen})
            *v /= 20;
    }
};

const char *const kWorkloads[] = {"ddr3_replay", "ddr3_replay_cycle",
                                  "hmc64_random", "fullsys_canneal"};

constexpr unsigned kHmcThreads = 4;

/** Spans around the benchmark's calls into the library. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int parent;
        double start;
        double end;
    };

    int
    open(const std::string &name)
    {
        spans_.push_back({name, cur_, since(t0_), 0});
        cur_ = static_cast<int>(spans_.size()) - 1;
        return cur_;
    }

    void
    close(int id)
    {
        spans_[id].end = since(t0_);
        cur_ = spans_[id].parent;
    }

    /** Per span name: count, total and self seconds, as JSON. */
    std::string
    summary() const
    {
        std::vector<double> child(spans_.size(), 0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[s.parent] += s.end - s.start;
        struct Agg
        {
            unsigned n = 0;
            double total = 0, self = 0;
        };
        std::map<std::string, Agg> by;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            Agg &a = by[spans_[i].name];
            double d = spans_[i].end - spans_[i].start;
            ++a.n;
            a.total += d;
            a.self += d - child[i];
        }
        std::ostringstream os;
        os << "{\"spans\": {";
        const char *sep = "";
        for (const auto &[name, a] : by) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "\"count\": %u, \"total_s\": %.9g, "
                          "\"self_s\": %.9g}",
                          a.n, a.total, a.self);
            os << sep << "\"" << name << "\": {" << buf;
            sep = ", ";
        }
        os << "}}";
        return os.str();
    }

  private:
    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    int cur_ = -1;
};

/** RAII span; a no-op without a tracer. */
class Scope
{
  public:
    Scope(Tracer *t, const char *name)
        : t_(t), id_(t != nullptr ? t->open(name) : -1)
    {}
    ~Scope()
    {
        if (t_ != nullptr)
            t_->close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
    int id_;
};

/** What one repetition produced. */
struct Rep
{
    double inputsS = 0;
    double buildS = 0;
    double setupS = 0;
    double simS = 0;
    double dumpS = 0;
    std::uint64_t attempted = 0;
    bool ok = false;
    std::string why;
    std::uint64_t inputsDigest = 0;
    std::uint64_t statsDigest = 0;
    Counters c;
};

using Builder = std::function<std::unique_ptr<System>()>;

/** Inputs of systems that generate their traffic themselves. */
std::uint64_t
noInputs()
{
    return 0;
}

/**
 * Build with @p build (after @p inputs wrote whatever the system
 * reads), simulate, check, digest. Exceptions from the library's
 * fatal() end the repetition as failed.
 */
Rep
runRep(const std::function<std::uint64_t()> &inputs,
       const Builder &build, Tick budget, Tracer *tr)
{
    Scope rep_span(tr, "rep");
    Rep r;
    try {
        auto t0 = Clock::now();
        {
            Scope s(tr, "trafficgen.inputs");
            r.inputsDigest = inputs();
        }
        r.inputsS = since(t0);
        std::unique_ptr<System> sys;
        t0 = Clock::now();
        {
            Scope s(tr, "harness.build");
            sys = build();
        }
        r.buildS = since(t0);
        r.setupS = r.inputsS + r.buildS;

        Tick start = sys->sim().curTick();
        t0 = Clock::now();
        Tick end;
        {
            Scope s(tr, "sim.run");
            end = sys->run(budget);
        }
        r.simS = since(t0);

        r.attempted = sys->attempted();
        r.c = sys->counters();
        std::uint64_t done = sys->completed();
        if (!sys->drained() || end - start >= budget)
            r.why = "not drained within the tick budget";
        else if (done != r.attempted ||
                 r.c.requests != static_cast<double>(r.attempted))
            r.why = "conservation: " + std::to_string(r.attempted) +
                    " attempted, " + std::to_string(done) +
                    " completed, " +
                    std::to_string(static_cast<std::uint64_t>(
                        r.c.requests)) +
                    " accepted by controllers";
        r.ok = r.why.empty();

        t0 = Clock::now();
        {
            Scope s(tr, "stats.dump");
            std::ostringstream os;
            sys->sim().dumpStatsJson(os);
            r.statsDigest = fnv1a(os.str());
        }
        r.dumpS = since(t0);
        Scope s(tr, "harness.teardown");
        sys.reset();
    } catch (const std::exception &e) {
        r.ok = false;
        r.why = e.what();
    }
    return r;
}

struct Totals
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;

    void
    add(const Rep &r, const char *what)
    {
        attempted += r.attempted;
        if (!r.ok) {
            failed += r.attempted;
            correct = false;
            std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                         r.why.c_str());
        }
    }
};

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0;
}

/** Host ns per request of one ledger row, over three runs. */
double
ledgerRow(const char *name, const Builder &build, Tracer &tr, Totals &tot)
{
    Scope s(&tr, name);
    std::vector<double> sim_s;
    double requests = 0;
    for (unsigned i = 0; i < 3; ++i) {
        Rep r = runRep(noInputs, build, fromUs(1e6), nullptr);
        tot.add(r, name);
        if (r.ok) {
            sim_s.push_back(r.simS);
            requests = r.c.requests;
        }
    }
    return ratio(median(sim_s) * 1e9, requests);
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

struct Metric
{
    const char *name;
    const char *unit;
    double value;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (k == "--tmpdir")
                a.tmpdir = v;
            else if (k == "--tamper")
                a.tamper = v;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    bool known = std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                              [&](const char *w) {
                                  return a.workload == w;
                              }) != std::end(kWorkloads);
    return known && a.seconds > 0 && !a.tmpdir.empty() &&
           (a.tamper.empty() || a.tamper == "drain" ||
            a.tamper == "digest");
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload "
                     "ddr3_replay|ddr3_replay_cycle|hmc64_random|"
                     "fullsys_canneal --seed N --seconds S --trace 0|1 "
                     "--tmpdir DIR [--smoke] [--tamper drain|digest]\n");
        return 2;
    }
    setQuiet(true);
    setThrowOnError(true);

    const Sizes sz(a.smoke);
    const std::string &w = a.workload;
    const bool replay = w == "ddr3_replay" || w == "ddr3_replay_cycle";
    const bool hmc = w == "hmc64_random";
    const std::string trace_path = a.tmpdir + "/" + w + ".dtrc";
    const Tick budget = a.tamper == "drain" ? fromUs(1.0) : fromUs(1e6);

    // Inputs and builder of one repetition of the workload.
    std::function<std::uint64_t()> inputs = [&] { return mix(a.seed); };
    auto builder = [&](unsigned threads) -> Builder {
        if (w == "ddr3_replay")
            return [&] {
                return makeReplay(trace_path, harness::CtrlModel::Event);
            };
        if (w == "ddr3_replay_cycle")
            return [&] {
                return makeReplay(trace_path, harness::CtrlModel::Cycle);
            };
        if (hmc)
            return [&, threads] {
                return makeHmc64(a.seed, sz.hmcReqPerGen, threads);
            };
        return [&] { return makeFullsys(a.seed, sz.fullsysOpsPerCore); };
    };
    if (replay) {
        std::uint64_t records = w == "ddr3_replay" ? sz.replayRecords
                                                   : sz.cycleRecords;
        inputs = [&, records] {
            return writeReplayTrace(trace_path, a.seed, records);
        };
    }

    Tracer tracer;
    Tracer *tr = a.trace ? &tracer : nullptr;
    Totals tot;

    // Warm-up repetition: checked and counted, not timed. Its digest
    // is the reference every later repetition must reproduce.
    Rep ref = runRep(inputs, builder(1), budget, tr);
    tot.add(ref, "warm-up repetition");

    // Peak memory of one simulation, taken before more repetitions
    // run: pools of exited engine worker threads keep their storage
    // for the life of the process, so every multi-threaded run
    // grows it.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024;

    std::vector<double> four_thread_s;
    if (hmc) {
        // Untimed unless traced: the engine promises byte-identical
        // statistics at every thread count.
        for (unsigned i = 0; i < (a.trace ? 3u : 1u); ++i) {
            Rep r = runRep(inputs, builder(kHmcThreads), budget, tr);
            if (r.ok && r.statsDigest != ref.statsDigest) {
                r.ok = false;
                r.why = "4-thread stats digest differs from 1 thread";
            }
            tot.add(r, "4-thread reference");
            if (r.ok)
                four_thread_s.push_back(r.simS);
        }
    }

    cpu_set_t all_cpus;
    const std::vector<int> cpus = allowedCpus(all_cpus);
    std::vector<Rep> timed;
    std::vector<double> traced_s, untraced_s;
    auto t_start = Clock::now();
    for (unsigned i = 1; i <= 4 || since(t_start) < a.seconds; ++i) {
        // In a traced run every other repetition records no spans, so
        // the run measures what its own tracing costs. Both of a pair
        // run on one CPU.
        const bool span = a.trace && i % 2 == 0;
        if (!cpus.empty())
            pinTo(cpus[(i - 1) / 2 % cpus.size()]);
        Rep r = runRep(inputs, builder(1), budget, span ? tr : nullptr);
        if (a.tamper == "digest" && i == 1)
            r.statsDigest ^= 1;
        if (r.ok && r.statsDigest != ref.statsDigest) {
            r.ok = false;
            r.why = "stats digest differs from the first repetition";
        }
        tot.add(r, "timed repetition");
        if (r.ok) {
            timed.push_back(r);
            (span ? traced_s : untraced_s).push_back(r.simS);
        }
    }
    if (!cpus.empty())
        sched_setaffinity(0, sizeof(all_cpus), &all_cpus);

    // Every timed repetition does the same work (its digest matched),
    // so a rate is that work over the reported time.
    auto series = [&](double Rep::*field) {
        std::vector<double> v;
        for (const Rep &r : timed)
            v.push_back(r.*field);
        return v;
    };

    const Counters c = timed.empty() ? Counters{} : timed.front().c;
    const double sim_s = quantile(series(&Rep::simS), kSimTimeQuantile);

    std::vector<Metric> metrics;
    if (!a.trace) {
        metrics = {
            {"host_req_per_s", "1/s", ratio(c.requests, sim_s)},
            {"host_ops_per_s", "1/s", ratio(c.ops, sim_s)},
            {"setup_s", "s", median(series(&Rep::setupS))},
            {"peak_rss_mb", "MB", peak_rss_mb},
        };
    } else {
        // Standalone decode pass over the workload's own trace, or
        // over the ledger's captured one when the workload has none.
        const std::string ledger_trace = a.tmpdir + "/ledger.dtrc";
        const std::string &decode_path = replay ? trace_path : ledger_trace;

        // Capture the ctrl row's accepted stream, untimed, so the
        // replay row replays exactly that traffic.
        Rep cap = runRep(
            noInputs,
            [&] {
                return makeGenCtrl(a.seed, sz.ledgerRequests,
                                   harness::CtrlModel::Event, ledger_trace);
            },
            fromUs(1e6), nullptr);
        tot.add(cap, "ledger capture");
        double ledger_ctrl = ledgerRow(
            "ledger.ctrl",
            [&] {
                return makeGenCtrl(a.seed, sz.ledgerRequests,
                                   harness::CtrlModel::Event);
            },
            tracer, tot);
        double ledger_replay = ledgerRow(
            "ledger.replay",
            [&] {
                return makeReplay(ledger_trace, harness::CtrlModel::Event);
            },
            tracer, tot);
        double ledger_xbar = ledgerRow(
            "ledger.xbar",
            [&] { return makeXbar1(a.seed, sz.ledgerRequests); }, tracer,
            tot);
        double ledger_mc1 = ledgerRow(
            "ledger.mc64_1t",
            [&] { return makeHmc64(a.seed, sz.ledgerReqPerGen, 1); },
            tracer, tot);
        double ledger_mc4 = ledgerRow(
            "ledger.mc64_4t",
            [&] {
                return makeHmc64(a.seed, sz.ledgerReqPerGen, kHmcThreads);
            },
            tracer, tot);
        double ledger_cycle = ledgerRow(
            "ledger.cycle",
            [&] {
                return makeGenCtrl(a.seed, sz.ledgerCycleRequests,
                                   harness::CtrlModel::Cycle);
            },
            tracer, tot);

        if (replay)
            inputs();
        std::vector<double> decode_ns;
        for (unsigned i = 0; i < 3; ++i) {
            Scope s(&tracer, "trafficgen.decode");
            auto t0 = Clock::now();
            TraceReader rd(decode_path);
            TraceEntry e;
            std::uint64_t n = 0;
            while (rd.next(e))
                ++n;
            decode_ns.push_back(since(t0) * 1e9 / std::max<double>(n, 1));
        }
        std::remove(ledger_trace.c_str());

        const double req = c.requests;
        const double traced = quantile(traced_s, kSimTimeQuantile);
        const double untraced = quantile(untraced_s, kSimTimeQuantile);
        metrics = {
            {"harness.build_s", "s", median(series(&Rep::buildS))},
            {"trafficgen.decode_ns_per_rec", "ns", median(decode_ns)},
            {"trafficgen.retries_per_req", "count",
             ratio(c.srcRetries, req)},
            {"mem.ctrl_refusals_per_req", "count",
             ratio(c.ctrlRefusals, req)},
            {"mem.accept_ratio", "ratio", ratio(req, req + c.ctrlRefusals)},
            {"xbar.retries_per_req", "count", ratio(c.xbarRetries, req)},
            {"sim.events_per_req", "count", ratio(c.events, req)},
            {"sim.host_ns_per_event", "ns", ratio(sim_s * 1e9, c.events)},
            {"sim.engine.windows_per_kreq", "count",
             ratio(c.windows * 1000, req)},
            {"sim.engine.msgs_per_req", "count", ratio(c.messages, req)},
            {"sim.engine.host_us_per_window", "us",
             ratio(sim_s * 1e6, c.windows)},
            {"sim.engine.speedup_4t", "x",
             hmc ? ratio(median(series(&Rep::simS)), median(four_thread_s))
                 : 0},
            {"dram.row_hit_rate", "ratio", c.rowHitRate},
            {"dram.bus_util", "ratio", c.busUtil},
            {"dram.avg_rdq_len", "count", c.avgRdQLen},
            {"dram.avg_mem_acc_lat_ns", "ns", c.avgMemAccLatNs},
            {"dram.wr_per_turnaround", "count", c.wrPerTurnaround},
            {"cyclesim.cycles_per_req", "count", ratio(c.cycles, req)},
            {"cyclesim.host_ns_per_cycle", "ns",
             ratio(sim_s * 1e9, c.cycles)},
            {"cpu.ipc", "ratio", c.ipc},
            {"cpu.l2_miss_rate", "ratio", c.l2MissRate},
            {"cpu.mshr_blocked_per_kop", "count",
             ratio(c.mshrBlocked * 1000, c.ops)},
            {"stats.dump_s", "s", median(series(&Rep::dumpS))},
            {"ledger.ctrl_ns_per_req", "ns", ledger_ctrl},
            {"ledger.replay_ns_per_req", "ns", ledger_replay},
            {"ledger.xbar_ns_per_req", "ns", ledger_xbar},
            {"ledger.mc64_1t_ns_per_req", "ns", ledger_mc1},
            {"ledger.mc64_4t_ns_per_req", "ns", ledger_mc4},
            {"ledger.cycle_ns_per_req", "ns", ledger_cycle},
            {"trace.overhead_pct", "%",
             untraced > 0 ? (traced / untraced - 1) * 100 : 0},
        };
        std::fprintf(stderr, "%s\n", tracer.summary().c_str());
    }
    std::remove(trace_path.c_str());

    std::printf("{\"run\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"timed_reps\": %zu, \"inputs_digest\": \"%s\", "
                "\"stats_digest\": \"%s\"}}\n",
                w.c_str(), static_cast<unsigned long long>(a.seed),
                timed.size(), hex(ref.inputsDigest).c_str(),
                hex(ref.statsDigest).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                tot.correct && !timed.empty() ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    tot.attempted, 1)),
                static_cast<unsigned long long>(tot.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name, metrics[i].value,
                    metrics[i].unit);
    std::printf("}}\n");
    return 0;
}
