/**
 * @file
 * Tests for the timing core and workload profiles: IPC limits, the
 * memory-latency feedback loop (the property traces cannot capture),
 * ROB blocking, and completion semantics.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "cpu/cache.hh"
#include "cpu/timing_core.hh"
#include "cpu/workload.hh"
#include "dram/dram_ctrl.hh"
#include "harness/testbench.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "test_util.hh"

namespace dramctrl {
namespace {

TEST(WorkloadTest, ProfilesResolve)
{
    for (const auto &name : workloads::names()) {
        WorkloadProfile p = workloads::byName(name);
        EXPECT_EQ(p.name, name);
        EXPECT_GT(p.memFraction, 0.0);
        EXPECT_LE(p.memFraction, 1.0);
        EXPECT_GE(p.readFraction, 0.0);
        EXPECT_LE(p.readFraction, 1.0);
        EXPECT_GT(p.footprintBytes, 0u);
    }
    setThrowOnError(true);
    EXPECT_THROW(workloads::byName("doom"), std::runtime_error);
    setThrowOnError(false);
}

TEST(WorkloadTest, CannealIsTheCacheHostileOne)
{
    // The Section IV-B case study depends on canneal having a large,
    // low-locality footprint.
    WorkloadProfile c = workloads::canneal();
    for (const auto &name : workloads::names()) {
        WorkloadProfile p = workloads::byName(name);
        EXPECT_LE(c.seqProb, p.seqProb);
        EXPECT_GE(c.footprintBytes, p.footprintBytes);
    }
}

/** Core driving an L1 + DRAM; returns the finished core's IPC. */
double
runCore(const WorkloadProfile &wl, std::uint64_t ops,
        Tick extra_mem_latency = 0)
{
    Simulator sim;
    CacheConfig l1;
    l1.size = 32 * 1024;
    l1.assoc = 2;
    l1.mshrs = 6;
    Cache cache(sim, "l1", l1);

    DRAMCtrlConfig mcfg = testutil::noRefreshConfig();
    mcfg.frontendLatency = fromNs(10) + extra_mem_latency;
    DRAMCtrl ctrl(sim, "ctrl", mcfg,
                  AddrRange(0, mcfg.org.channelCapacity));
    cache.memSidePort().bind(ctrl.port());

    CoreConfig ccfg;
    ccfg.numOps = ops;
    ccfg.seed = 5;
    TimingCore core(sim, "core", ccfg, wl, 0);
    core.dcachePort().bind(cache.cpuSidePort());

    harness::runUntil(sim, [&] { return core.done(); });
    EXPECT_TRUE(core.done());
    return core.ipc();
}

TEST(TimingCoreTest, CompletesConfiguredOps)
{
    Simulator sim;
    CacheConfig l1;
    l1.size = 32 * 1024;
    Cache cache(sim, "l1", l1);
    DRAMCtrlConfig mcfg = testutil::noRefreshConfig();
    DRAMCtrl ctrl(sim, "ctrl", mcfg,
                  AddrRange(0, mcfg.org.channelCapacity));
    cache.memSidePort().bind(ctrl.port());

    CoreConfig ccfg;
    ccfg.numOps = 5000;
    TimingCore core(sim, "core", ccfg, workloads::blackscholes(), 0);
    core.dcachePort().bind(cache.cpuSidePort());

    harness::runUntil(sim, [&] { return core.done(); });
    EXPECT_TRUE(core.done());
    EXPECT_GE(core.committed(), 5000u);
    EXPECT_GT(core.coreStats().memOps.value(), 0.0);
}

TEST(TimingCoreTest, IpcBoundedByCommitWidth)
{
    double ipc = runCore(workloads::blackscholes(), 20000);
    EXPECT_GT(ipc, 0.1);
    EXPECT_LE(ipc, 8.0);
}

TEST(TimingCoreTest, ComputeBoundBeatsMemoryBound)
{
    // Small-footprint, cache-friendly blackscholes must out-IPC the
    // cache-hostile canneal on the same system.
    double compute = runCore(workloads::blackscholes(), 20000);
    double memory = runCore(workloads::canneal(), 20000);
    EXPECT_GT(compute, 1.5 * memory);
}

TEST(TimingCoreTest, SlowerMemoryLowersIpc)
{
    // The feedback loop: added memory latency must reduce IPC for a
    // memory-bound workload.
    double fast = runCore(workloads::canneal(), 20000, 0);
    double slow = runCore(workloads::canneal(), 20000, fromNs(200));
    EXPECT_GT(fast, slow * 1.1);
}

TEST(TimingCoreTest, MemStallsAccumulateUnderPressure)
{
    Simulator sim;
    CacheConfig l1;
    l1.size = 1024; // tiny cache, constant misses
    l1.mshrs = 1;   // single outstanding miss
    Cache cache(sim, "l1", l1);
    DRAMCtrlConfig mcfg = testutil::noRefreshConfig();
    DRAMCtrl ctrl(sim, "ctrl", mcfg,
                  AddrRange(0, mcfg.org.channelCapacity));
    cache.memSidePort().bind(ctrl.port());

    CoreConfig ccfg;
    ccfg.numOps = 5000;
    TimingCore core(sim, "core", ccfg, workloads::canneal(), 0);
    core.dcachePort().bind(cache.cpuSidePort());

    harness::runUntil(sim, [&] { return core.done(); });
    EXPECT_GT(core.coreStats().memStallCycles.value(), 0.0);
}

TEST(TimingCoreTest, StatsCountEveryCycleWhileParked)
{
    // A stalled core parks its tick, yet a dump or a reset taken while
    // it is parked must see every cycle a ticking core would have
    // counted: one per period up to now.
    harness::MultiCoreConfig cfg;
    cfg.numCores = 4;
    cfg.ctrl = testutil::noRefreshConfig();
    cfg.opsPerCore = 1'000'000;
    harness::MultiCoreSystem sys(cfg, workloads::canneal());
    const Tick period = cfg.core.clockPeriod;
    auto dump = [&] {
        std::ostringstream os;
        sys.sim().dumpStatsJson(os);
    };

    const Tick t1 = fromUs(3.0) + period / 3;
    sys.sim().run(t1);
    ASSERT_NE(sys.sim().eventq().anyParked(), nullptr);
    sys.sim().resetStats();

    // Two dumps while parked: the second must not count twice.
    for (Tick t : {fromUs(5.0), fromUs(5.0) + 7 * period}) {
        sys.sim().run(t);
        ASSERT_NE(sys.sim().eventq().anyParked(), nullptr);
        dump();
        for (unsigned i = 0; i < cfg.numCores; ++i) {
            const auto &st = sys.core(i).coreStats();
            EXPECT_EQ(st.cycles.value(),
                      static_cast<double>(t / period - t1 / period));
            EXPECT_GT(st.memStallCycles.value(), 0.0);
            EXPECT_LE(st.memStallCycles.value(), st.cycles.value());
        }
    }
}

TEST(TimingCoreTest, ValidatesConfig)
{
    setThrowOnError(true);
    Simulator sim;
    CoreConfig bad;
    bad.dispatchWidth = 0;
    EXPECT_THROW(TimingCore(sim, "c", bad, workloads::canneal(), 0),
                 std::runtime_error);
    setThrowOnError(false);
}

TEST(MultiCoreSystemTest, RunsToCompletionAndReportsMetrics)
{
    harness::MultiCoreConfig cfg;
    cfg.numCores = 2;
    cfg.channels = 2;
    cfg.ctrl = testutil::noRefreshConfig();
    cfg.opsPerCore = 3000;
    harness::MultiCoreSystem sys(cfg, workloads::fluidanimate());
    sys.runToCompletion();

    EXPECT_TRUE(sys.core(0).done());
    EXPECT_TRUE(sys.core(1).done());
    EXPECT_GT(sys.aggregateIPC(), 0.0);
    EXPECT_GT(sys.l2MissLatencyNs(), 0.0);
    EXPECT_GE(sys.avgBusUtil(), 0.0);
    EXPECT_LE(sys.avgBusUtil(), 1.0);
    EXPECT_EQ(sys.numChannels(), 2u);
}

TEST(MultiCoreSystemTest, BothControllerModelsComplete)
{
    for (auto model :
         {harness::CtrlModel::Event, harness::CtrlModel::Cycle}) {
        harness::MultiCoreConfig cfg;
        cfg.numCores = 2;
        cfg.channels = 1;
        cfg.ctrl = testutil::noRefreshConfig();
        cfg.model = model;
        cfg.opsPerCore = 2000;
        harness::MultiCoreSystem sys(cfg, workloads::x264());
        sys.runToCompletion();
        EXPECT_TRUE(sys.core(0).done())
            << harness::toString(model);
    }
}

} // namespace
} // namespace dramctrl
