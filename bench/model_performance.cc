/**
 * @file
 * Experiment E7 — Section III-D: simulation performance of the
 * event-based model vs the cycle-based model.
 *
 * Two parts:
 *  - google-benchmark timings of both models across the synthetic
 *    traffic patterns (the paper reports the event model ~7x faster
 *    on average, up to 10x), and
 *  - a 16-channel HMC-style configuration, where the paper reports
 *    an order of magnitude even with detailed cores.
 *
 * Absolute times are host-specific; the *ratio* is the result.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "exec/batch_runner.hh"
#include "trafficgen/random_gen.hh"
#include "xbar/xbar.hh"

using namespace dramctrl;
using namespace dramctrl::bench;

namespace {

struct Pattern
{
    const char *name;
    PagePolicy page;
    AddrMapping map;
    std::uint64_t stride;
    unsigned banks;
    unsigned readPct;
};

const Pattern kPatterns[] = {
    {"linear_hits", PagePolicy::Open, AddrMapping::RoRaBaCoCh, 1024, 8,
     100},
    {"random_conflicts", PagePolicy::Open, AddrMapping::RoRaBaCoCh, 64,
     8, 100},
    {"mixed_rw", PagePolicy::Open, AddrMapping::RoRaBaCoCh, 256, 4,
     50},
    {"closed_writes", PagePolicy::Closed, AddrMapping::RoCoRaBaCh, 128,
     8, 0},
};

PointResult
runOnce(harness::CtrlModel model, const Pattern &p,
        std::uint64_t requests)
{
    PointConfig pc;
    pc.model = model;
    pc.page = p.page;
    pc.mapping = p.map;
    pc.strideBytes = p.stride;
    pc.banks = p.banks;
    pc.readPct = p.readPct;
    pc.numRequests = requests;
    return runPoint(pc);
}

void
BM_SyntheticTraffic(benchmark::State &state)
{
    const Pattern &p = kPatterns[state.range(0)];
    auto model = state.range(1) == 0 ? harness::CtrlModel::Event
                                     : harness::CtrlModel::Cycle;
    std::uint64_t requests = 4000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runOnce(model, p, requests).hostSeconds);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(requests));
    state.SetLabel(std::string(p.name) + "/" +
                   harness::toString(model));
}

void
BM_Hmc16Channel(benchmark::State &state)
{
    auto model = state.range(0) == 0 ? harness::CtrlModel::Event
                                     : harness::CtrlModel::Cycle;
    const std::uint64_t requests = 8000;

    for (auto _ : state) {
        Simulator sim;
        DRAMCtrlConfig cfg = presets::hmcVault();
        Crossbar xbar(sim, "xbar", XBarConfig{});
        auto ranges = interleavedRanges(
            0, 16 * cfg.org.channelCapacity, 256, 16);
        std::vector<std::unique_ptr<MemCtrlBase>> vaults;
        for (unsigned ch = 0; ch < 16; ++ch) {
            vaults.push_back(harness::makeController(
                sim, "vault" + std::to_string(ch), cfg, ranges[ch],
                model));
            xbar.memSidePort(xbar.addMemSidePort(ranges[ch]))
                .bind(vaults.back()->port());
        }
        GenConfig gc;
        gc.windowSize = 1 << 26;
        gc.readPct = 70;
        gc.blockSize = 32;
        gc.minITT = gc.maxITT = fromNs(1);
        gc.numRequests = requests;
        gc.seed = 77;
        RandomGen gen(sim, "gen", gc, 0);
        gen.port().bind(xbar.cpuSidePort(xbar.addCpuSidePort()));
        harness::runUntil(sim, [&] { return gen.done(); });
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(requests));
    state.SetLabel(std::string("hmc16/") + harness::toString(model));
}

void
printSpeedupSummary(const char *json_path, unsigned jobs)
{
    std::printf("\n--- speedup summary (event vs cycle, host "
                "wall-clock) ---\n");
    std::printf("%-20s %10s %10s %8s %12s %12s\n", "pattern",
                "event_s", "cycle_s", "speedup", "ev_events/s",
                "cy_events/s");
    double total_ratio = 0;
    std::string json = "[\n";
    char row[256];

    // One batch job per pattern; both models run back-to-back on the
    // same worker so their timing ratio is same-thread. Default is
    // one job (serial) — host-time ratios are the measurement, and
    // co-running trials share the machine. --jobs trades timing
    // fidelity for wall-clock when only the shape matters.
    struct PatternTimes
    {
        PointResult ev, cy;
    };
    exec::BatchRunner runner(jobs);
    runner.run<PatternTimes>(
        std::size(kPatterns),
        [&](std::size_t i) {
            PatternTimes t;
            t.ev = runOnce(harness::CtrlModel::Event, kPatterns[i],
                           20000);
            t.cy = runOnce(harness::CtrlModel::Cycle, kPatterns[i],
                           20000);
            return t;
        },
        [&](const exec::JobOutcome<PatternTimes> &out) {
            if (!out.ok)
                fatal("pattern %s failed: %s",
                      kPatterns[out.index].name, out.error.c_str());
            const Pattern &p = kPatterns[out.index];
            const PointResult &ev = out.value.ev;
            const PointResult &cy = out.value.cy;
            double ev_rate = ev.hostSeconds > 0
                                 ? static_cast<double>(ev.events) /
                                       ev.hostSeconds
                                 : 0;
            double cy_rate = cy.hostSeconds > 0
                                 ? static_cast<double>(cy.events) /
                                       cy.hostSeconds
                                 : 0;
            std::printf("%-20s %10.4f %10.4f %7.1fx %12.0f %12.0f\n",
                        p.name, ev.hostSeconds, cy.hostSeconds,
                        cy.hostSeconds / ev.hostSeconds, ev_rate,
                        cy_rate);
            total_ratio += cy.hostSeconds / ev.hostSeconds;
            for (int m = 0; m < 2; ++m) {
                const PointResult &r = m == 0 ? ev : cy;
                double rate = m == 0 ? ev_rate : cy_rate;
                std::snprintf(
                    row, sizeof(row),
                    "  {\"pattern\": \"%s\", \"model\": \"%s\", "
                    "\"events_per_sec\": %.0f, \"host_seconds\": "
                    "%.6f, "
                    "\"sim_ticks\": %llu, \"events\": %llu},\n",
                    p.name, m == 0 ? "event" : "cycle", rate,
                    r.hostSeconds,
                    static_cast<unsigned long long>(
                        fromNs(r.simSeconds * 1e9)),
                    static_cast<unsigned long long>(r.events));
                json += row;
            }
        });
    std::printf("average speedup: %.1fx (paper: ~7x average, up to "
                "10x)\n",
                total_ratio / std::size(kPatterns));

    if (json_path != nullptr) {
        std::snprintf(row, sizeof(row),
                      "  {\"pattern\": \"all\", \"model\": \"both\", "
                      "\"avg_speedup\": %.3f}\n]\n",
                      total_ratio / std::size(kPatterns));
        json += row;
        std::FILE *f = std::fopen(json_path, "w");
        if (f != nullptr) {
            std::fputs(json.c_str(), f);
            std::fclose(f);
        } else {
            std::fprintf(stderr,
                         "model_performance: cannot open %s\n",
                         json_path);
        }
    }
}

} // namespace

BENCHMARK(BM_SyntheticTraffic)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Hmc16Channel)
    ->Args({0})
    ->Args({1})
    ->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    // Strip our own --json/--jobs flags before google-benchmark
    // sees argv.
    const char *json_path = nullptr;
    unsigned jobs = 1;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
            continue;
        }
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            jobs = static_cast<unsigned>(std::stoul(argv[++i]));
            if (jobs == 0)
                jobs = exec::ThreadPool::hardwareThreads();
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;

    setQuiet(true);
    printHeader("model_performance: simulation speed of both models",
                "Section III-D (7x average speedup claim)");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    printSpeedupSummary(json_path, jobs);
    return 0;
}
