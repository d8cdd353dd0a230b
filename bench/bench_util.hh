/**
 * @file
 * Shared plumbing for the experiment-reproduction benchmarks: run one
 * validation point (Section III test-case formulation) on either
 * controller model and collect the metrics the paper plots.
 */

#ifndef DRAMCTRL_BENCH_BENCH_UTIL_H
#define DRAMCTRL_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "dram/dram_presets.hh"
#include "exec/thread_pool.hh"
#include "harness/stimulus.hh"
#include "harness/testbench.hh"
#include "power/micron_power.hh"
#include "sim/logging.hh"
#include "stats/histogram.hh"

namespace dramctrl {
namespace bench {

/** One Section III validation point. */
struct PointConfig
{
    harness::CtrlModel model = harness::CtrlModel::Event;
    PagePolicy page = PagePolicy::Open;
    /** Open page pairs with RoRaBaCoCh, closed with RoCoRaBaCh
     *  (Section III-B); set explicitly to override. */
    AddrMapping mapping = AddrMapping::RoRaBaCoCh;
    std::uint64_t strideBytes = 64;
    unsigned banks = 1;
    unsigned readPct = 100;
    std::uint64_t numRequests = 6000;
    /** Inject faster than the DRAM can serve to measure saturation. */
    Tick itt = fromNs(3);
    /** Queue-size overrides (0 keeps the preset's defaults). The
     *  paper matches queue sizes per experiment (Section III). */
    unsigned readBufferSize = 0;
    unsigned writeBufferSize = 0;
    /** Arbitrary final tweak of the controller configuration (used by
     *  the ablation benchmarks to sweep individual design choices). */
    std::function<void(DRAMCtrlConfig &)> tweak;
};

/** What one run produced. */
struct PointResult
{
    double busUtil = 0;
    double bandwidthGBs = 0;
    double avgReadLatencyNs = 0;
    double rowHitRate = 0;
    PowerInputs powerIn;
    DRAMCtrlConfig cfg;
    /** Wall-clock seconds the host spent simulating. */
    double hostSeconds = 0;
    /** Simulated seconds covered. */
    double simSeconds = 0;
    /** Kernel events serviced. */
    std::uint64_t events = 0;
    /** Read latency histogram snapshot (ns). */
    std::vector<std::pair<double, std::uint64_t>> latencyBuckets;
    unsigned latencyModes = 0;
    /** Mean writes drained per write episode (event model only). */
    double wrPerTurnaround = 0;
};

/** Apply the point's controller-configuration overrides. */
inline void
applyOverrides(DRAMCtrlConfig &cfg, const PointConfig &pc)
{
    cfg.pagePolicy = pc.page;
    cfg.addrMapping = pc.mapping;
    if (pc.readBufferSize != 0)
        cfg.readBufferSize = pc.readBufferSize;
    if (pc.writeBufferSize != 0) {
        cfg.writeBufferSize = pc.writeBufferSize;
        cfg.minWritesPerSwitch =
            std::max(1u, std::min(cfg.minWritesPerSwitch,
                                  pc.writeBufferSize / 2));
    }
    if (pc.tweak)
        pc.tweak(cfg);
}

/**
 * Drive @p cfg with @p stim: warm up for 5 us, reset the statistics,
 * then measure until the requestor is done.
 */
inline PointResult
measurePoint(const PointConfig &pc, const DRAMCtrlConfig &cfg,
             harness::Stimulus stim)
{
    harness::SingleChannelSystem tb(cfg, pc.model);
    stim.readPct = pc.readPct;
    stim.ittNs = toNs(pc.itt);
    stim.requests = pc.numRequests;
    stim.seed = 12345;
    harness::Requestors reqs = harness::attachStimulus(tb, stim);
    const BaseGen &gen = *reqs.gens[0];

    auto t0 = std::chrono::steady_clock::now();
    tb.sim().run(fromUs(5));
    tb.sim().resetStats();
    Tick measure_start = tb.sim().curTick();
    tb.runToCompletion([&] { return reqs.done(); }, fromUs(100000));
    auto t1 = std::chrono::steady_clock::now();

    PointResult r;
    r.cfg = cfg;
    r.busUtil = tb.ctrl().busUtilisation();
    r.bandwidthGBs = tb.ctrl().achievedBandwidthGBs();
    r.avgReadLatencyNs = gen.avgReadLatencyNs();
    r.powerIn = tb.ctrl().powerInputs();
    r.hostSeconds = std::chrono::duration<double>(t1 - t0).count();
    r.simSeconds = toSeconds(tb.sim().curTick() - measure_start);
    r.events = tb.sim().eventq().numEventsServiced();
    if (pc.model == harness::CtrlModel::Event) {
        r.rowHitRate =
            tb.eventCtrl().ctrlStats().rowHitRate.value();
        r.wrPerTurnaround =
            tb.eventCtrl().ctrlStats().wrPerTurnAround.value();
    }

    const auto &h = gen.genStats().readLatencyHist;
    for (std::size_t i = 0; i < h.numBuckets(); ++i) {
        if (h.bucketCount(i) > 0)
            r.latencyBuckets.emplace_back(h.bucketLow(i),
                                          h.bucketCount(i));
    }
    r.latencyModes = h.numModes(0.02);
    return r;
}

/** Run one validation point with the DRAM-aware generator. */
inline PointResult
runPoint(const PointConfig &pc)
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.writeLowThreshold = 0.0; // drain fully so runs terminate
    applyOverrides(cfg, pc);
    harness::Stimulus stim;
    stim.pattern = harness::Pattern::Dram;
    stim.strideBytes = pc.strideBytes;
    stim.banks = pc.banks;
    return measurePoint(pc, cfg, stim);
}

/** Same point but with a linear or random generator (latency runs). */
inline PointResult
runLinearPoint(const PointConfig &pc, bool random = false)
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    applyOverrides(cfg, pc);
    harness::Stimulus stim;
    stim.pattern =
        random ? harness::Pattern::Random : harness::Pattern::Linear;
    stim.windowBytes = 1 << 22;
    return measurePoint(pc, cfg, stim);
}

/**
 * Pull `--jobs N` (0 = one per core) out of argv for benches whose
 * trials run on the batch engine. Defaults to 1: serial timing is
 * the paper-faithful measurement; parallel trials are for quick
 * shape checks. Output is identical either way.
 */
inline unsigned
parseJobs(int argc, char **argv, unsigned fallback = 1)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0) {
            unsigned j = static_cast<unsigned>(
                std::stoul(argv[i + 1]));
            return j == 0 ? exec::ThreadPool::hardwareThreads() : j;
        }
    }
    return fallback;
}

inline void
printHeader(const char *title, const char *paper_item)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title);
    std::printf("reproduces: %s\n", paper_item);
    std::printf("==============================================================\n");
}

} // namespace bench
} // namespace dramctrl

#endif // DRAMCTRL_BENCH_BENCH_UTIL_H
