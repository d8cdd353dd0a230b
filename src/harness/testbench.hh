/**
 * @file
 * System-assembly helpers shared by the tests, benchmarks and examples.
 *
 * Two canned systems cover the paper's experiments:
 *
 *  - SingleChannelSystem: one traffic generator driving one controller
 *    (either model) directly — the Section III validation setup.
 *  - MultiCoreSystem: N timing cores with private L1s behind a shared
 *    L2, a memory crossbar interleaving over M channels — the
 *    Section IV case-study setup (Figure 1's structure).
 */

#ifndef DRAMCTRL_HARNESS_TESTBENCH_H
#define DRAMCTRL_HARNESS_TESTBENCH_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/cache.hh"
#include "cpu/timing_core.hh"
#include "cpu/workload.hh"
#include "dram/dram_ctrl.hh"
#include "mem/mem_ctrl_iface.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "trafficgen/trace.hh"
#include "xbar/xbar.hh"

namespace dramctrl {
class TraceWriter;
}

namespace dramctrl {
namespace harness {

/** Which controller model to instantiate. */
enum class CtrlModel {
    Event, ///< the paper's event-based model (DRAMCtrl)
    Cycle, ///< the DRAMSim2-style comparator (CycleDRAMCtrl)
};

const char *toString(CtrlModel m);

/** Instantiate a controller of either model behind MemCtrlBase. */
std::unique_ptr<MemCtrlBase> makeController(Simulator &sim,
                                            const std::string &name,
                                            const DRAMCtrlConfig &cfg,
                                            AddrRange range,
                                            CtrlModel model);

/**
 * Run @p sim in steps of @p step ticks until @p done returns true or
 * @p max_ticks elapse.
 *
 * @return the tick the loop stopped at.
 */
Tick runUntil(Simulator &sim, const std::function<bool()> &done,
              Tick step = fromUs(1.0), Tick max_ticks = fromUs(100000));

/** One generator, one controller: the validation testbench. */
class SingleChannelSystem
{
  public:
    SingleChannelSystem(const DRAMCtrlConfig &cfg, CtrlModel model,
                        Addr base = 0);

    Simulator &sim() { return sim_; }
    MemCtrlBase &ctrl() { return *ctrl_; }

    /** The addresses the controller serves. */
    const AddrRange &range() const { return range_; }

    /** The event-model controller; panics if model is Cycle. */
    DRAMCtrl &eventCtrl();

    /**
     * Record every request the generator gets accepted into the
     * controller to a .dtrc file, streamed with O(1) memory; a .txt
     * path is fatal (see openCaptureWriter()). Must be called before
     * addGen(); the file is sealed by finishCapture() (idempotent,
     * also run at destruction).
     */
    void enableCapture(const std::string &path);
    void finishCapture();

    /**
     * Construct the generator (bound to the controller, through the
     * capture recorder when one is enabled) in place. Exactly one
     * generator may be added.
     */
    template <typename GenT, typename GenCfgT>
    GenT &
    addGen(const GenCfgT &gen_cfg, RequestorId id = 0)
    {
        if (genAdded_)
            fatal("SingleChannelSystem already has a generator");
        genAdded_ = true;
        auto gen = std::make_unique<GenT>(sim_, "gen", gen_cfg, id);
        gen->port().bind(recorder_ != nullptr ? recorder_->cpuSidePort()
                                              : ctrl_->port());
        GenT &ref = *gen;
        genHolder_ = std::move(gen);
        return ref;
    }

    /** Run until the generator reports done and the controller drains. */
    Tick runToCompletion(const std::function<bool()> &gen_done,
                         Tick max_ticks = fromUs(100000));

    /**
     * Warm up for @p warmup ticks, reset all statistics, then run
     * another @p measure ticks (the standard measurement discipline of
     * the bandwidth sweeps).
     */
    void runMeasured(Tick warmup, Tick measure);

  private:
    Simulator sim_;
    AddrRange range_;
    std::unique_ptr<MemCtrlBase> ctrl_;
    std::unique_ptr<SimObject> genHolder_;
    std::unique_ptr<TraceRecorder> recorder_;
    std::shared_ptr<TraceWriter> captureWriter_;
    bool genAdded_ = false;
};

/** Parameters of the Section IV multi-core system. */
struct MultiCoreConfig
{
    unsigned numCores = 4;
    CoreConfig core;
    CacheConfig l1;
    CacheConfig l2;
    /** Channels (each gets one controller of @p ctrl's configuration). */
    unsigned channels = 1;
    DRAMCtrlConfig ctrl;
    CtrlModel model = CtrlModel::Event;
    /** Channel interleaving granularity (0 = one cache line). */
    std::uint64_t interleaveGranularity = 0;
    /** Ops per core. */
    std::uint64_t opsPerCore = 200'000;
    std::uint64_t seed = 1;

    MultiCoreConfig();
};

/**
 * N cores -> private L1 data caches -> L1-L2 crossbar -> shared L2 ->
 * memory crossbar -> one controller per channel.
 */
class MultiCoreSystem
{
  public:
    MultiCoreSystem(const MultiCoreConfig &cfg,
                    const WorkloadProfile &workload);

    Simulator &sim() { return sim_; }

    TimingCore &core(unsigned i) { return *cores_.at(i); }
    Cache &l1(unsigned i) { return *l1s_.at(i); }
    Cache &l2() { return *l2_; }
    MemCtrlBase &ctrl(unsigned ch) { return *ctrls_.at(ch); }
    unsigned numChannels() const
    {
        return static_cast<unsigned>(ctrls_.size());
    }

    /** Run until every core committed its ops (or the tick budget). */
    Tick runToCompletion(Tick max_ticks = fromUs(1000000));

    /** Aggregate instructions per cycle over all cores. */
    double aggregateIPC() const;

    /** Average L2 miss (fill) latency in ns. */
    double l2MissLatencyNs() const;

    /** Bus utilisation averaged over the channels. */
    double avgBusUtil() const;

    /** Achieved DRAM bandwidth summed over the channels, GByte/s. */
    double totalBandwidthGBs() const;

  private:
    MultiCoreConfig cfg_;
    Simulator sim_;
    std::vector<std::unique_ptr<TimingCore>> cores_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::unique_ptr<Crossbar> l1ToL2_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<Crossbar> memXbar_;
    std::vector<std::unique_ptr<MemCtrlBase>> ctrls_;
};

} // namespace harness
} // namespace dramctrl

#endif // DRAMCTRL_HARNESS_TESTBENCH_H
