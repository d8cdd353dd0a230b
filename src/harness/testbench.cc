#include "harness/testbench.hh"

#include <algorithm>

#include "cyclesim/cycle_ctrl.hh"
#include "sim/logging.hh"
#include "trafficgen/trace_file.hh"

namespace dramctrl {
namespace harness {

const char *
toString(CtrlModel m)
{
    switch (m) {
      case CtrlModel::Event: return "event";
      case CtrlModel::Cycle: return "cycle";
    }
    return "invalid";
}

std::unique_ptr<MemCtrlBase>
makeController(Simulator &sim, const std::string &name,
               const DRAMCtrlConfig &cfg, AddrRange range,
               CtrlModel model)
{
    if (model == CtrlModel::Event)
        return std::make_unique<DRAMCtrl>(sim, name, cfg, range);
    return std::make_unique<cyclesim::CycleDRAMCtrl>(sim, name, cfg,
                                                     range);
}

Tick
runUntil(Simulator &sim, const std::function<bool()> &done, Tick step,
         Tick max_ticks)
{
    Tick limit = sim.curTick() + max_ticks;
    // Poll at absolute multiples of the step so the stopping tick
    // doesn't depend on where the run started: a simulation resumed
    // from a mid-step checkpoint observes done() at the same absolute
    // times an uninterrupted run does.
    while (!done() && sim.curTick() < limit) {
        Tick next = (sim.curTick() / step + 1) * step;
        sim.run(std::min(next, limit));
    }
    return sim.curTick();
}

SingleChannelSystem::SingleChannelSystem(const DRAMCtrlConfig &cfg,
                                         CtrlModel model, Addr base)
    : range_(base, cfg.org.channelCapacity)
{
    ctrl_ = makeController(sim_, "mem_ctrl", cfg, range_, model);
}

DRAMCtrl &
SingleChannelSystem::eventCtrl()
{
    auto *c = dynamic_cast<DRAMCtrl *>(ctrl_.get());
    if (c == nullptr)
        panic("eventCtrl() on a cycle-model testbench");
    return *c;
}

void
SingleChannelSystem::enableCapture(const std::string &path)
{
    if (genAdded_)
        fatal("enableCapture() must be called before addGen()");
    if (recorder_ != nullptr)
        fatal("capture already enabled");
    captureWriter_ = openCaptureWriter(path);
    recorder_ = std::make_unique<TraceRecorder>(sim_, "trace_rec");
    recorder_->memSidePort().bind(ctrl_->port());
    // Single event queue: accepted requests arrive in tick order, so
    // they stream straight to the writer with O(1) memory.
    auto writer = captureWriter_;
    recorder_->setSink(
        [writer](const TraceEntry &e) { writer->append(e); });
}

void
SingleChannelSystem::finishCapture()
{
    if (captureWriter_ != nullptr)
        captureWriter_->finish();
}

Tick
SingleChannelSystem::runToCompletion(
    const std::function<bool()> &gen_done, Tick max_ticks)
{
    return runUntil(
        sim_, [&] { return gen_done() && ctrl_->idle(); }, fromUs(1.0),
        max_ticks);
}

void
SingleChannelSystem::runMeasured(Tick warmup, Tick measure)
{
    sim_.run(sim_.curTick() + warmup);
    sim_.resetStats();
    sim_.run(sim_.curTick() + measure);
}

MultiCoreConfig::MultiCoreConfig()
{
    // Table II defaults.
    l1.size = 64 * 1024;
    l1.assoc = 2;
    l1.blockSize = 64;
    l1.hitLatency = fromNs(2.0);
    l1.mshrs = 6;
    l1.targetsPerMshr = 8;

    l2.size = 512 * 1024;
    l2.assoc = 8;
    l2.blockSize = 64;
    l2.hitLatency = fromNs(12.0);
    l2.mshrs = 16;
    l2.targetsPerMshr = 8;
}

MultiCoreSystem::MultiCoreSystem(const MultiCoreConfig &cfg,
                                 const WorkloadProfile &workload)
    : cfg_(cfg)
{
    if (cfg_.numCores == 0 || cfg_.channels == 0)
        fatal("multi-core system needs at least one core and channel");

    std::uint64_t total_mem =
        cfg_.ctrl.org.channelCapacity * cfg_.channels;
    std::uint64_t slice = total_mem / cfg_.numCores;

    // Clamp each core's working set into its slice of physical memory.
    WorkloadProfile wl = workload;
    wl.footprintBytes = std::min(wl.footprintBytes, slice);

    std::uint64_t granularity = cfg_.interleaveGranularity != 0
                                    ? cfg_.interleaveGranularity
                                    : cfg_.l2.blockSize;

    // Memory side: crossbar + one controller per channel.
    memXbar_ = std::make_unique<Crossbar>(sim_, "mem_xbar",
                                          XBarConfig{});
    auto ranges =
        interleavedRanges(0, total_mem, granularity, cfg_.channels);
    for (unsigned ch = 0; ch < cfg_.channels; ++ch) {
        auto ctrl = makeController(
            sim_, "mem_ctrl" + std::to_string(ch), cfg_.ctrl,
            ranges[ch], cfg_.model);
        unsigned mem_idx = memXbar_->addMemSidePort(ranges[ch]);
        memXbar_->memSidePort(mem_idx).bind(ctrl->port());
        ctrls_.push_back(std::move(ctrl));
    }

    // Shared L2 between the L1-L2 crossbar and the memory crossbar.
    l2_ = std::make_unique<Cache>(sim_, "l2", cfg_.l2);
    unsigned l2_src = memXbar_->addCpuSidePort();
    l2_->memSidePort().bind(memXbar_->cpuSidePort(l2_src));

    l1ToL2_ = std::make_unique<Crossbar>(sim_, "l1_xbar", XBarConfig{});
    unsigned l2_mem_idx =
        l1ToL2_->addMemSidePort(AddrRange(0, total_mem));
    l1ToL2_->memSidePort(l2_mem_idx).bind(l2_->cpuSidePort());

    // Cores and their private L1 data caches.
    for (unsigned i = 0; i < cfg_.numCores; ++i) {
        auto l1 = std::make_unique<Cache>(
            sim_, "l1d" + std::to_string(i), cfg_.l1);
        unsigned src = l1ToL2_->addCpuSidePort();
        l1->memSidePort().bind(l1ToL2_->cpuSidePort(src));

        CoreConfig core_cfg = cfg_.core;
        core_cfg.numOps = cfg_.opsPerCore;
        core_cfg.memBase = slice * i;
        core_cfg.seed = cfg_.seed + i * 7919;

        auto core = std::make_unique<TimingCore>(
            sim_, "core" + std::to_string(i), core_cfg, wl,
            static_cast<RequestorId>(i));
        core->dcachePort().bind(l1->cpuSidePort());

        l1s_.push_back(std::move(l1));
        cores_.push_back(std::move(core));
    }
}

Tick
MultiCoreSystem::runToCompletion(Tick max_ticks)
{
    auto done = [this] {
        return std::all_of(cores_.begin(), cores_.end(),
                           [](const std::unique_ptr<TimingCore> &c) {
                               return c->done();
                           });
    };
    runUntil(sim_, done, fromUs(5.0), max_ticks);

    // The cores stop at their op budget with memory accesses still in
    // flight; drain the hierarchy so every packet is delivered before
    // any teardown or measurement.
    auto drained = [this] {
        bool caches_idle =
            l2_->idle() &&
            std::all_of(l1s_.begin(), l1s_.end(),
                        [](const std::unique_ptr<Cache> &c) {
                            return c->idle();
                        });
        bool ctrls_idle = std::all_of(
            ctrls_.begin(), ctrls_.end(),
            [](const std::unique_ptr<MemCtrlBase> &c) {
                return c->idle();
            });
        return caches_idle && ctrls_idle && l1ToL2_->idle() &&
               memXbar_->idle();
    };
    return runUntil(sim_, drained, fromUs(1.0), fromUs(1000.0));
}

double
MultiCoreSystem::aggregateIPC() const
{
    double total = 0;
    for (const auto &core : cores_)
        total += core->ipc();
    return total;
}

double
MultiCoreSystem::l2MissLatencyNs() const
{
    return l2_->avgMissLatencyNs();
}

double
MultiCoreSystem::avgBusUtil() const
{
    double total = 0;
    for (const auto &ctrl : ctrls_)
        total += ctrl->busUtilisation();
    return total / static_cast<double>(ctrls_.size());
}

double
MultiCoreSystem::totalBandwidthGBs() const
{
    double total = 0;
    for (const auto &ctrl : ctrls_)
        total += ctrl->achievedBandwidthGBs();
    return total;
}

} // namespace harness
} // namespace dramctrl
