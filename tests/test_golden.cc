/**
 * @file
 * Golden-stats regression corpus (`ctest -R golden_`).
 *
 * Each DRAM preset runs a short deterministic workload per traffic
 * shape (linear, random, mixed read/write, write drain) and the full
 * stats JSON is compared byte-for-byte against the reference under
 * tests/golden/. Any change to controller timing, scheduling, stats
 * bookkeeping or the JSON writer shows up as a diff here — if the
 * change is intended, regenerate with tools/regen_golden.sh and
 * review the diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/workload.hh"
#include "dram/dram_presets.hh"
#include "dram/plugin/plugin.hh"
#include "harness/config_file.hh"
#include "harness/multichannel.hh"
#include "harness/stimulus.hh"
#include "harness/testbench.hh"
#include "trafficgen/linear_gen.hh"
#include "trafficgen/random_gen.hh"
#include "trafficgen/trace.hh"
#include "trafficgen/trace_file.hh"

namespace dramctrl {
namespace {

struct GoldenCase
{
    std::string preset;
    std::string shape; // linear | random | mixed | writedrain
};

std::string
goldenName(const GoldenCase &c)
{
    return "golden_" + c.preset + "_" + c.shape;
}

std::string
caseName(const testing::TestParamInfo<GoldenCase> &info)
{
    return goldenName(info.param);
}

/**
 * Compare @p got with the reference tests/golden/<name>.json, or
 * rewrite the reference when GOLDEN_REGEN is set.
 */
void
checkReference(const std::string &name, const std::string &got)
{
    const std::string path = std::string(GOLDEN_DIR) + "/" + name + ".json";
    if (std::getenv("GOLDEN_REGEN") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out.is_open()) << "cannot write " << path;
        out << got;
        return;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open())
        << "missing reference " << path
        << " — generate the corpus with tools/regen_golden.sh";
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << "stats drifted from the reference; if intended, regenerate "
        << "with tools/regen_golden.sh and review the diff";
}

/** Run the canned workload for @p c and return the stats JSON. */
std::string
runCase(const GoldenCase &c)
{
    DRAMCtrlConfig cfg = presets::byName(c.preset);
    cfg.writeLowThreshold = 0.0;
    cfg.check();

    harness::SingleChannelSystem tb(cfg, harness::CtrlModel::Event);

    GenConfig gc;
    gc.windowSize =
        std::min<std::uint64_t>(cfg.org.channelCapacity, 1ULL << 22);
    gc.minITT = gc.maxITT = fromNs(6.0);
    gc.numRequests = 300;
    gc.seed = 7;

    BaseGen *gen = nullptr;
    if (c.shape == "linear") {
        gc.readPct = 100;
        gen = &tb.addGen<LinearGen>(gc);
    } else if (c.shape == "random") {
        gc.readPct = 100;
        gen = &tb.addGen<RandomGen>(gc);
    } else if (c.shape == "mixed") {
        gc.readPct = 50;
        gen = &tb.addGen<RandomGen>(gc);
    } else { // writedrain: all writes, exercises the drain mode
        gc.readPct = 0;
        gen = &tb.addGen<LinearGen>(gc);
    }

    tb.runToCompletion([&] { return gen->done(); });

    std::ostringstream os;
    tb.sim().dumpStatsJson(os);
    os << "\n";
    return os.str();
}

class GoldenStats : public testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenStats, MatchesReference)
{
    const GoldenCase &c = GetParam();
    checkReference(goldenName(c), runCase(c));
}

std::vector<GoldenCase>
allCases()
{
    std::vector<GoldenCase> cases;
    for (const std::string &preset : presets::names())
        for (const char *shape :
             {"linear", "random", "mixed", "writedrain"})
            cases.push_back({preset, shape});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenStats,
                         testing::ValuesIn(allCases()), caseName);

/**
 * Config-file twin: the committed examples/ddr4.json run through the
 * same workload must match the ddr4_2400 preset's reference
 * byte-for-byte — file-loaded and factory-built configurations are
 * interchangeable all the way down to the stats JSON. Never
 * regenerates: golden_ddr4_2400_mixed.json is owned by the preset
 * case above.
 */
TEST(GoldenConfigFile, ExampleDdr4MatchesPresetReference)
{
    DRAMCtrlConfig cfg = harness::loadConfigFile(
        std::string(EXAMPLES_DIR) + "/ddr4.json");
    cfg.writeLowThreshold = 0.0;
    cfg.check();

    harness::SingleChannelSystem tb(cfg, harness::CtrlModel::Event);
    GenConfig gc;
    gc.windowSize =
        std::min<std::uint64_t>(cfg.org.channelCapacity, 1ULL << 22);
    gc.minITT = gc.maxITT = fromNs(6.0);
    gc.numRequests = 300;
    gc.seed = 7;
    gc.readPct = 50;
    BaseGen &gen = tb.addGen<RandomGen>(gc);
    tb.runToCompletion([&] { return gen.done(); });

    std::ostringstream os;
    tb.sim().dumpStatsJson(os);
    os << "\n";

    const std::string path =
        std::string(GOLDEN_DIR) + "/golden_ddr4_2400_mixed.json";
    if (std::getenv("GOLDEN_REGEN") != nullptr)
        GTEST_SKIP() << "reference owned by the preset case";
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open())
        << "missing reference " << path
        << " — generate the corpus with tools/regen_golden.sh";
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(os.str(), want.str())
        << "a config-file run drifted from its preset twin";
}

/**
 * Plugin corpus: the same short deterministic workloads with a
 * controller plugin chain attached, locking down the plugin counters
 * (ECC decode classes, PRAC alerts/mitigations, refresh-manager
 * command counts) and their interaction with the controller's own
 * statistics. Seeded ECC injection and the rotation state are pure
 * functions of the configuration, so these references are as stable
 * as the plain corpus.
 */
struct PluginGoldenCase
{
    std::string name;    // golden_plugin_<name>.json
    std::string preset;
    std::string plugins; // parsePluginList() csv
    std::string shape;   // linear | random | mixed
};

std::string
pluginGoldenName(const PluginGoldenCase &c)
{
    return "golden_plugin_" + c.name;
}

std::string
pluginCaseName(const testing::TestParamInfo<PluginGoldenCase> &info)
{
    return pluginGoldenName(info.param);
}

std::string
runPluginCase(const PluginGoldenCase &c)
{
    DRAMCtrlConfig cfg = presets::byName(c.preset);
    cfg.writeLowThreshold = 0.0;
    std::string err;
    if (!plugin::parsePluginList(c.plugins, cfg, err))
        ADD_FAILURE() << err;
    for (PluginSpec &p : cfg.plugins) {
        if (p.kind == "ecc") {
            p.eccBer = 1e-3;
            p.eccSeed = 99;
        } else if (p.kind == "prac") {
            p.pracThreshold = 4;
        } else if (p.kind == "refmgr-pb") {
            // Shorten tREFI so the short run sees the rotation.
            cfg.timing.tREFI = fromUs(1.0);
        }
    }
    cfg.check();

    harness::SingleChannelSystem tb(cfg, harness::CtrlModel::Event);

    GenConfig gc;
    gc.windowSize = 1ULL << 16; // few rows: PRAC thresholds trip
    gc.minITT = gc.maxITT = fromNs(6.0);
    gc.numRequests = 300;
    gc.seed = 7;
    gc.readPct = c.shape == "linear" ? 100
                 : c.shape == "mixed" ? 50
                                      : 70;

    BaseGen *gen = c.shape == "linear"
                       ? static_cast<BaseGen *>(&tb.addGen<LinearGen>(gc))
                       : static_cast<BaseGen *>(&tb.addGen<RandomGen>(gc));
    tb.runToCompletion([&] { return gen->done(); });

    std::ostringstream os;
    tb.sim().dumpStatsJson(os);
    os << "\n";
    return os.str();
}

class GoldenPluginStats
    : public testing::TestWithParam<PluginGoldenCase>
{
};

TEST_P(GoldenPluginStats, MatchesReference)
{
    const PluginGoldenCase &c = GetParam();
    checkReference(pluginGoldenName(c), runPluginCase(c));
}

std::vector<PluginGoldenCase>
pluginCases()
{
    return {
        {"ddr3_1600_ecc", "ddr3_1600", "ecc", "mixed"},
        {"ddr3_1600_prac", "ddr3_1600", "prac", "random"},
        {"ddr3_1600_refmgr_pb", "ddr3_1600", "refmgr-pb", "random"},
        {"lpddr3_1600_chain", "lpddr3_1600", "ecc,prac,refmgr",
         "mixed"},
    };
}

INSTANTIATE_TEST_SUITE_P(PluginCorpus, GoldenPluginStats,
                         testing::ValuesIn(pluginCases()),
                         pluginCaseName);

/**
 * Multi-channel corpus over the system presets (hmc_stack_*). One
 * generator per channel drives a channel-interleaved slice; the total
 * request budget is fixed so the 256-channel stack stays as quick as
 * the 16-channel one. Shard merge order is deterministic, so the
 * stats JSON is reference-comparable exactly like the single-channel
 * corpus (and byte-identical at any --sim-threads, which the shard
 * ctest cases assert separately).
 */
std::string
runSystemCase(const GoldenCase &c)
{
    harness::MultiChannelConfig mcfg =
        harness::systemPresetByName(c.preset);
    mcfg.ctrl.writeLowThreshold = 0.0;
    mcfg.ctrl.check();

    harness::MultiChannelSystem mc(mcfg);

    harness::Stimulus stim;
    harness::fromString(c.shape, stim.pattern);
    stim.readPct = c.shape == "linear" ? 100 : 50;
    stim.requests = 768;
    stim.seed = 7;
    harness::attachStimulus(mc, stim);

    mc.runToCompletion();

    std::ostringstream os;
    mc.sim().dumpStatsJson(os);
    os << "\n";
    return os.str();
}

class GoldenSystemStats : public testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenSystemStats, MatchesReference)
{
    const GoldenCase &c = GetParam();
    checkReference(goldenName(c), runSystemCase(c));
}

std::vector<GoldenCase>
systemCases()
{
    std::vector<GoldenCase> cases;
    for (const std::string &preset : harness::systemPresetNames())
        for (const char *shape : {"linear", "random"})
            cases.push_back({preset, shape});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(SystemCorpus, GoldenSystemStats,
                         testing::ValuesIn(systemCases()), caseName);

/**
 * Trace-replay corpus: the committed example trace under
 * tests/traces/ replayed through DDR3-1333. The binary (.dtrc) and
 * text (.txt) twins are the same 64-request stream, so both runs are
 * compared against the one reference — locking down both the decode
 * paths and the replay engine at once.
 */
std::string
runTraceCase(const std::string &trace_file)
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.writeLowThreshold = 0.0;
    cfg.check();

    harness::SingleChannelSystem tb(cfg, harness::CtrlModel::Event);
    TracePlayer &player = tb.addGen<TracePlayer>(
        makeTracePlayerConfig(std::string(TRACES_DIR) + "/" +
                              trace_file));
    tb.runToCompletion([&] { return player.done(); });

    std::ostringstream os;
    tb.sim().dumpStatsJson(os);
    os << "\n";
    return os.str();
}

class GoldenTraceReplay : public testing::TestWithParam<std::string>
{
};

TEST_P(GoldenTraceReplay, MatchesReference)
{
    const std::string path =
        std::string(GOLDEN_DIR) + "/golden_trace_replay.json";
    const std::string got = runTraceCase(GetParam());

    // Only the .dtrc run regenerates, so the text twin still
    // compares against the shared reference under GOLDEN_REGEN.
    if (std::getenv("GOLDEN_REGEN") != nullptr &&
        GetParam() == "example.dtrc") {
        std::ofstream out(path);
        ASSERT_TRUE(out.is_open()) << "cannot write " << path;
        out << got;
        return;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open())
        << "missing reference " << path
        << " — generate the corpus with tools/regen_golden.sh";
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << "stats drifted from the reference; if intended, regenerate "
        << "with tools/regen_golden.sh and review the diff";
}

std::string
traceCaseName(const testing::TestParamInfo<std::string> &info)
{
    return info.param == "example.dtrc" ? "golden_trace_replay_dtrc"
                                        : "golden_trace_replay_txt";
}

INSTANTIATE_TEST_SUITE_P(TraceCorpus, GoldenTraceReplay,
                         testing::Values(std::string("example.dtrc"),
                                         std::string("example.txt")),
                         traceCaseName);

/**
 * Cycle-model corpus: the DRAMSim2-style comparator (CycleDRAMCtrl)
 * under the shapes that reach each of its mechanisms — multi-burst
 * decomposition across the command queues, refresh drains that close
 * banks under queued commands (runs span several tREFI), closed-page
 * auto-precharge, bank-group spacing, and the PRAC mitigation slot.
 * Any change to the comparator's scheduling shows up here byte for
 * byte, so host-speed work on it can prove it simulates the same.
 */
struct CycleGoldenCase
{
    std::string name;    // golden_cycle_<name>.json
    std::string preset;
    PagePolicy policy;
    std::string plugins; // parsePluginList() csv, may be empty
    unsigned readPct;
    unsigned blockSize;
    std::uint64_t windowSize;
    std::uint64_t requests;
};

std::string
cycleGoldenName(const CycleGoldenCase &c)
{
    return "golden_cycle_" + c.name;
}

std::string
cycleCaseName(const testing::TestParamInfo<CycleGoldenCase> &info)
{
    return cycleGoldenName(info.param);
}

std::string
runCycleCase(const CycleGoldenCase &c)
{
    DRAMCtrlConfig cfg = presets::byName(c.preset);
    cfg.pagePolicy = c.policy;
    std::string err;
    if (!c.plugins.empty() &&
        !plugin::parsePluginList(c.plugins, cfg, err))
        ADD_FAILURE() << err;
    for (PluginSpec &p : cfg.plugins) {
        if (p.kind == "prac")
            p.pracThreshold = 4;
    }
    cfg.check();

    harness::SingleChannelSystem tb(cfg, harness::CtrlModel::Cycle);

    GenConfig gc;
    gc.windowSize = c.windowSize;
    gc.blockSize = c.blockSize;
    gc.minITT = gc.maxITT = fromNs(6.0);
    gc.numRequests = c.requests;
    gc.seed = 7;
    gc.readPct = c.readPct;
    BaseGen &gen = tb.addGen<RandomGen>(gc);
    tb.runToCompletion([&] { return gen.done(); });

    std::ostringstream os;
    tb.sim().dumpStatsJson(os);
    os << "\n";
    return os.str();
}

class GoldenCycleStats : public testing::TestWithParam<CycleGoldenCase>
{
};

TEST_P(GoldenCycleStats, MatchesReference)
{
    const CycleGoldenCase &c = GetParam();
    checkReference(cycleGoldenName(c), runCycleCase(c));
}

std::vector<CycleGoldenCase>
cycleCases()
{
    return {
        // Two-burst requests into a saturated queue over ~6 tREFI.
        {"ddr3_1333_open_mixed128", "ddr3_1333", PagePolicy::Open, "",
         50, 128, 1ULL << 20, 3000},
        {"ddr3_1333_closed_random", "ddr3_1333", PagePolicy::Closed,
         "", 70, 64, 1ULL << 22, 2000},
        {"ddr4_2400_open_mixed", "ddr4_2400", PagePolicy::Open, "", 50,
         64, 1ULL << 22, 2000},
        // Few rows: the PRAC threshold trips and mitigations issue.
        {"ddr3_1333_prac", "ddr3_1333", PagePolicy::Open, "ecc,prac",
         70, 64, 1ULL << 16, 2000},
    };
}

INSTANTIATE_TEST_SUITE_P(CycleCorpus, GoldenCycleStats,
                         testing::ValuesIn(cycleCases()), cycleCaseName);

/**
 * Multi-core corpus: the Section IV full-system setup (four timing
 * cores, private L1s, shared L2, two closed-page DDR3-1333 channels)
 * under a cache-hostile and a cache-friendly workload, in front of
 * either controller model. It is the only corpus with TimingCore in
 * the loop, so it pins the core's cycle and stall accounting and the
 * same-tick order of core, cache, crossbar and controller events.
 */
struct MultiCoreGoldenCase
{
    std::string workload;
    harness::CtrlModel model;
};

std::string
multiCoreGoldenName(const MultiCoreGoldenCase &c)
{
    return "golden_multicore_" + c.workload + "_" +
           harness::toString(c.model);
}

std::string
multiCoreCaseName(const testing::TestParamInfo<MultiCoreGoldenCase> &info)
{
    return multiCoreGoldenName(info.param);
}

std::string
runMultiCoreCase(const MultiCoreGoldenCase &c)
{
    harness::MultiCoreConfig cfg;
    cfg.numCores = 4;
    cfg.channels = 2;
    cfg.ctrl = presets::ddr3_1333();
    cfg.ctrl.pagePolicy = PagePolicy::Closed;
    cfg.ctrl.check();
    cfg.model = c.model;
    cfg.opsPerCore = 20000;
    cfg.seed = 11;

    harness::MultiCoreSystem sys(cfg, workloads::byName(c.workload));
    sys.runToCompletion();

    std::ostringstream os;
    sys.sim().dumpStatsJson(os);
    os << "\n";
    return os.str();
}

class GoldenMultiCoreStats
    : public testing::TestWithParam<MultiCoreGoldenCase>
{
};

TEST_P(GoldenMultiCoreStats, MatchesReference)
{
    const MultiCoreGoldenCase &c = GetParam();
    checkReference(multiCoreGoldenName(c), runMultiCoreCase(c));
}

std::vector<MultiCoreGoldenCase>
multiCoreCases()
{
    std::vector<MultiCoreGoldenCase> cases;
    for (const char *wl : {"canneal", "blackscholes"})
        for (harness::CtrlModel m :
             {harness::CtrlModel::Event, harness::CtrlModel::Cycle})
            cases.push_back({wl, m});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(MultiCoreCorpus, GoldenMultiCoreStats,
                         testing::ValuesIn(multiCoreCases()),
                         multiCoreCaseName);

} // namespace
} // namespace dramctrl
