/**
 * @file
 * Checkpoint/restore round-trip properties (`ctest -R ckpt_`).
 *
 * The contract under test (docs/CHECKPOINT.md): running 0 -> T_end in
 * one piece and running 0 -> T_ckpt, saving, restoring into a freshly
 * built system and continuing to T_end produce byte-identical stats
 * JSON and identical command logs — for every DRAM preset, every
 * traffic pattern, both controller models, and fuzzer-drawn
 * configurations. Damaged snapshots (bit flips, truncation, config
 * mismatch) must fail with a clear fatal() naming the problem, never
 * crash or restore silently. Warm-start sweep rows must equal the
 * cold-path rows.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/ckpt.hh"
#include "cyclesim/cycle_ctrl.hh"
#include "dram/cmd_log.hh"
#include "dram/dram_presets.hh"
#include "dram/plugin/plugin.hh"
#include "exec/sweep.hh"
#include "harness/testbench.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "trafficgen/dram_gen.hh"
#include "trafficgen/linear_gen.hh"
#include "trafficgen/random_gen.hh"
#include "validate/config_fuzzer.hh"

namespace dramctrl {
namespace {

constexpr Tick kCkptAt = fromNs(800.0);
constexpr std::uint64_t kRequests = 300;
constexpr std::uint64_t kSeed = 7;

struct CkptCase
{
    std::string preset;
    std::string pattern; // linear | random | dram
    harness::CtrlModel model;
    unsigned readPct;
};

std::string
caseName(const testing::TestParamInfo<CkptCase> &info)
{
    return "ckpt_" + info.param.preset + "_" + info.param.pattern +
           "_" + harness::toString(info.param.model);
}

struct BuiltSystem
{
    std::unique_ptr<harness::SingleChannelSystem> tb;
    BaseGen *gen = nullptr;
};

BuiltSystem
buildSystem(const DRAMCtrlConfig &base_cfg, const std::string &pattern,
            harness::CtrlModel model, unsigned read_pct,
            std::uint64_t requests, std::uint64_t seed,
            unsigned block_size = 64)
{
    DRAMCtrlConfig cfg = base_cfg;
    cfg.writeLowThreshold = 0.0; // drain fully so runs terminate
    cfg.check();

    BuiltSystem built;
    built.tb =
        std::make_unique<harness::SingleChannelSystem>(cfg, model);

    GenConfig gc;
    gc.windowSize =
        std::min<std::uint64_t>(cfg.org.channelCapacity, 1ULL << 22);
    gc.readPct = read_pct;
    gc.blockSize = block_size;
    gc.minITT = gc.maxITT = fromNs(6.0);
    gc.numRequests = requests;
    gc.seed = seed;

    if (pattern == "linear") {
        built.gen = &built.tb->addGen<LinearGen>(gc);
    } else if (pattern == "random") {
        built.gen = &built.tb->addGen<RandomGen>(gc);
    } else {
        DramGenConfig dgc;
        static_cast<GenConfig &>(dgc) = gc;
        dgc.org = cfg.org;
        dgc.mapping = cfg.addrMapping;
        dgc.strideBytes = 256;
        dgc.numBanksTarget = 4;
        built.gen = &built.tb->addGen<DramGen>(dgc);
    }
    return built;
}

std::string
statsJson(harness::SingleChannelSystem &tb)
{
    std::ostringstream os;
    tb.sim().dumpStatsJson(os);
    return os.str();
}

void
expectSameLog(const std::vector<CmdRecord> &got,
              const std::vector<CmdRecord> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].toString(), want[i].toString())
            << "command " << i << " differs";
    }
}

class CkptRoundTrip : public testing::TestWithParam<CkptCase>
{
};

TEST_P(CkptRoundTrip, SplitRunMatchesUninterrupted)
{
    const CkptCase &c = GetParam();
    DRAMCtrlConfig cfg = presets::byName(c.preset);

    // Reference: one uninterrupted run.
    BuiltSystem ref = buildSystem(cfg, c.pattern, c.model, c.readPct,
                                  kRequests, kSeed);
    CmdLogger refLog;
    ref.tb->ctrl().setCmdLogger(&refLog);
    ref.tb->runToCompletion([&] { return ref.gen->done(); });
    const std::string refStats = statsJson(*ref.tb);

    // Phase 1: run to the checkpoint tick and save.
    BuiltSystem pre = buildSystem(cfg, c.pattern, c.model, c.readPct,
                                  kRequests, kSeed);
    CmdLogger preLog;
    pre.tb->ctrl().setCmdLogger(&preLog);
    pre.tb->sim().run(kCkptAt);
    const std::string snapshot = ckpt::saveToString(pre.tb->sim());

    // Phase 2: fresh system, restore, continue to completion.
    BuiltSystem post = buildSystem(cfg, c.pattern, c.model, c.readPct,
                                   kRequests, kSeed);
    CmdLogger postLog;
    post.tb->ctrl().setCmdLogger(&postLog);
    ckpt::restoreFromString(post.tb->sim(), snapshot);
    EXPECT_EQ(post.tb->sim().curTick(), kCkptAt);
    post.tb->runToCompletion([&] { return post.gen->done(); });

    EXPECT_EQ(statsJson(*post.tb), refStats);

    std::vector<CmdRecord> joined = preLog.log();
    joined.insert(joined.end(), postLog.log().begin(),
                  postLog.log().end());
    expectSameLog(joined, refLog.log());
}

std::vector<CkptCase>
allCases()
{
    std::vector<CkptCase> cases;
    for (const std::string &preset : presets::names())
        for (const char *pattern : {"linear", "random", "dram"})
            cases.push_back(
                {preset, pattern, harness::CtrlModel::Event, 60});
    // The cycle comparator, one preset across every pattern.
    for (const char *pattern : {"linear", "random", "dram"})
        cases.push_back(
            {"ddr3_1333", pattern, harness::CtrlModel::Cycle, 60});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPresets, CkptRoundTrip,
                         testing::ValuesIn(allCases()), caseName);

/**
 * The cycle controller keeps derived state beside what it saves: each
 * queued transaction's decoded next burst, per-bank lists of the
 * transactions waiting on each bank, which banks may fit one, and the
 * pending head repair after a refresh drain. Restore rebuilds it.
 * Saving where that state matters most — a two-burst transaction half
 * in the command queues, a decompose scan being skipped because
 * nothing fits, and a refresh drain that has closed banks under queued
 * commands — must still resume into the uninterrupted run.
 */
TEST(CkptCycleDerived, ckpt_cycle_derived_state_round_trip)
{
    const DRAMCtrlConfig cfg = presets::byName("ddr3_1333");
    constexpr unsigned kBlock = 128;          // two bursts per request
    constexpr std::uint64_t kLongRun = 1500;  // crosses one tREFI
    auto build = [&] {
        return buildSystem(cfg, "random", harness::CtrlModel::Cycle, 50,
                           kLongRun, kSeed, kBlock);
    };
    auto cycleCtrl = [](BuiltSystem &b) -> cyclesim::CycleDRAMCtrl & {
        return dynamic_cast<cyclesim::CycleDRAMCtrl &>(b.tb->ctrl());
    };

    BuiltSystem ref = build();
    CmdLogger refLog;
    ref.tb->ctrl().setCmdLogger(&refLog);
    ref.tb->runToCompletion([&] { return ref.gen->done(); });
    const std::string refStats = statsJson(*ref.tb);

    // Under saturation the last precharge before the first refresh is
    // the drain's: saving at it lands between drain and refresh.
    Tick drain_pre = 0;
    for (const CmdRecord &r : refLog.log()) {
        if (r.cmd == DRAMCmd::Ref)
            break;
        if (r.cmd == DRAMCmd::Pre)
            drain_pre = r.tick;
    }
    ASSERT_GT(drain_pre, kCkptAt);

    using Probe = std::function<bool(BuiltSystem &)>;
    const std::pair<const char *, Probe> states[] = {
        {"part-decomposed",
         [&](BuiltSystem &b) { return cycleCtrl(b).partDecomposed() > 0; }},
        {"scan blocked",
         [&](BuiltSystem &b) { return cycleCtrl(b).decomposeBlocked(); }},
        {"refresh drain",
         [&](BuiltSystem &b) { return b.tb->sim().curTick() >= drain_pre; }},
    };
    for (const auto &[what, holds] : states) {
        SCOPED_TRACE(what);
        BuiltSystem pre = build();
        CmdLogger preLog;
        pre.tb->ctrl().setCmdLogger(&preLog);
        // Step cycle by cycle from a loaded queue to the state.
        Tick at = kCkptAt;
        pre.tb->sim().run(at);
        while (!holds(pre) && !pre.gen->done()) {
            at += cfg.timing.tCK;
            pre.tb->sim().run(at);
        }
        ASSERT_TRUE(holds(pre)) << "state never reached";
        const std::string snapshot = ckpt::saveToString(pre.tb->sim());

        BuiltSystem post = build();
        CmdLogger postLog;
        post.tb->ctrl().setCmdLogger(&postLog);
        ckpt::restoreFromString(post.tb->sim(), snapshot);
        // Restore marks every waiting bank for a rescan.
        EXPECT_FALSE(cycleCtrl(post).decomposeBlocked());
        post.tb->runToCompletion([&] { return post.gen->done(); });

        EXPECT_EQ(statsJson(*post.tb), refStats);
        std::vector<CmdRecord> joined = preLog.log();
        joined.insert(joined.end(), postLog.log().begin(),
                      postLog.log().end());
        expectSameLog(joined, refLog.log());
    }
}

/** Fuzzer-drawn configurations must round-trip just like presets. */
TEST(CkptFuzz, ckpt_fuzzed_configs_round_trip)
{
    validate::FuzzerOptions fopts;
    fopts.numRequests = 120;
    for (std::uint64_t i = 0; i < 6; ++i) {
        Random rng(0xc0ffee + i);
        validate::FuzzCase fc = validate::sampleCase(rng, fopts);
        fc.cfg.writeLowThreshold = 0.0;
        const std::uint64_t seed = rng.next();

        auto build = [&] {
            BuiltSystem b;
            b.tb = std::make_unique<harness::SingleChannelSystem>(
                fc.cfg, harness::CtrlModel::Event);
            GenConfig gc;
            gc.windowSize = fc.stream.windowSize;
            gc.readPct = fc.stream.readPct;
            gc.minITT = fc.stream.minITT;
            gc.maxITT = fc.stream.maxITT;
            gc.numRequests = fopts.numRequests;
            gc.seed = seed;
            b.gen = &b.tb->addGen<RandomGen>(gc);
            return b;
        };

        BuiltSystem ref = build();
        ref.tb->runToCompletion([&] { return ref.gen->done(); });
        const std::string refStats = statsJson(*ref.tb);

        BuiltSystem pre = build();
        pre.tb->sim().run(fromNs(500.0));
        const std::string snapshot = ckpt::saveToString(pre.tb->sim());

        BuiltSystem post = build();
        ckpt::restoreFromString(post.tb->sim(), snapshot);
        post.tb->runToCompletion([&] { return post.gen->done(); });

        EXPECT_EQ(statsJson(*post.tb), refStats)
            << "fuzz case " << i << " (" << validate::summarize(fc)
            << ")";
    }
}

/**
 * Plugin chains must round-trip: ECC decode classes, PRAC counter
 * tables and pending alerts, and the per-bank refresh rotation are
 * part of the controller section (under "plugin.<kind>.*" keys), so
 * a split run continues with identical plugin behaviour — same
 * mitigation refreshes, same rotation slots, same error counters.
 */
TEST(CkptPlugin, ckpt_plugin_chains_round_trip)
{
    const char *chains[] = {"ecc", "prac", "refmgr", "refmgr-pb",
                            "ecc,prac,refmgr"};
    for (const char *chain : chains) {
        DRAMCtrlConfig cfg = presets::byName("ddr3_1333");
        std::string err;
        ASSERT_TRUE(plugin::parsePluginList(chain, cfg, err)) << err;
        for (PluginSpec &p : cfg.plugins) {
            if (p.kind == "ecc") {
                p.eccBer = 1e-3;
                p.eccSeed = 21;
            } else if (p.kind == "prac") {
                // Low threshold: alerts and mitigations straddle the
                // checkpoint, exercising the counter-table state.
                p.pracThreshold = 4;
            } else if (p.kind == "refmgr-pb") {
                // Short tREFI: the rotation advances before kCkptAt.
                cfg.timing.tREFI = fromUs(1.0);
            }
        }

        BuiltSystem ref = buildSystem(cfg, "random",
                                      harness::CtrlModel::Event, 60,
                                      kRequests, kSeed);
        CmdLogger refLog;
        ref.tb->ctrl().setCmdLogger(&refLog);
        ref.tb->runToCompletion([&] { return ref.gen->done(); });
        const std::string refStats = statsJson(*ref.tb);

        BuiltSystem pre = buildSystem(cfg, "random",
                                      harness::CtrlModel::Event, 60,
                                      kRequests, kSeed);
        CmdLogger preLog;
        pre.tb->ctrl().setCmdLogger(&preLog);
        pre.tb->sim().run(kCkptAt);
        const std::string snapshot =
            ckpt::saveToString(pre.tb->sim());

        BuiltSystem post = buildSystem(cfg, "random",
                                       harness::CtrlModel::Event, 60,
                                       kRequests, kSeed);
        CmdLogger postLog;
        post.tb->ctrl().setCmdLogger(&postLog);
        ckpt::restoreFromString(post.tb->sim(), snapshot);
        post.tb->runToCompletion([&] { return post.gen->done(); });

        EXPECT_EQ(statsJson(*post.tb), refStats)
            << "plugin chain '" << chain << "'";

        std::vector<CmdRecord> joined = preLog.log();
        joined.insert(joined.end(), postLog.log().begin(),
                      postLog.log().end());
        expectSameLog(joined, refLog.log());
    }
}

/**
 * Restoring a plugin-bearing snapshot into a system built without the
 * chain (or vice versa) must fail with a clear fatal(), never restore
 * silently with dangling plugin state.
 */
TEST(CkptPlugin, ckpt_plugin_chain_mismatch_is_fatal)
{
    BuiltSystem pre = buildSystem(presets::byName("ddr3_1333"),
                                  "random", harness::CtrlModel::Event,
                                  60, kRequests, kSeed);
    pre.tb->sim().run(kCkptAt);
    const std::string snapshot = ckpt::saveToString(pre.tb->sim());

    DRAMCtrlConfig withPlugins = presets::byName("ddr3_1333");
    std::string err;
    ASSERT_TRUE(plugin::parsePluginList("prac", withPlugins, err));
    BuiltSystem post = buildSystem(withPlugins, "random",
                                   harness::CtrlModel::Event, 60,
                                   kRequests, kSeed);
    setThrowOnError(true);
    EXPECT_THROW(ckpt::restoreFromString(post.tb->sim(), snapshot),
                 std::runtime_error);
    setThrowOnError(false);
}

std::string
makeSnapshot()
{
    BuiltSystem pre = buildSystem(presets::byName("ddr3_1333"),
                                  "random", harness::CtrlModel::Event,
                                  60, kRequests, kSeed);
    pre.tb->sim().run(kCkptAt);
    return ckpt::saveToString(pre.tb->sim());
}

/** Restore @p snapshot into a fresh system of @p cfg, expecting fatal(). */
std::string
restoreExpectingFatal(const std::string &snapshot,
                      const DRAMCtrlConfig &cfg = presets::ddr3_1333())
{
    BuiltSystem post = buildSystem(cfg, "random",
                                   harness::CtrlModel::Event, 60,
                                   kRequests, kSeed);
    setThrowOnError(true);
    std::string message;
    try {
        ckpt::restoreFromString(post.tb->sim(), snapshot);
    } catch (const std::runtime_error &e) {
        message = e.what();
    }
    setThrowOnError(false);
    EXPECT_FALSE(message.empty())
        << "damaged snapshot restored without an error";
    return message;
}

TEST(CkptDamage, ckpt_corrupted_snapshot_names_the_section)
{
    const std::string good = makeSnapshot();
    // Flip one byte in the middle — lands in some section's payload,
    // which the per-section CRC must catch before anything restores.
    std::string bad = good;
    bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0xff);
    std::string msg = restoreExpectingFatal(bad);
    EXPECT_NE(msg.find("checkpoint"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'"), std::string::npos)
        << "message should name the section: " << msg;
}

TEST(CkptDamage, ckpt_truncated_snapshot_fails_cleanly)
{
    const std::string good = makeSnapshot();
    std::string msg =
        restoreExpectingFatal(good.substr(0, good.size() / 3));
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
}

TEST(CkptDamage, ckpt_bad_magic_is_rejected)
{
    std::string msg = restoreExpectingFatal("not a checkpoint at all");
    EXPECT_NE(msg.find("checkpoint"), std::string::npos) << msg;
}

TEST(CkptDamage, ckpt_config_mismatch_is_rejected)
{
    // A ddr3_1333 snapshot must not restore into a ddr3_1600 system.
    const std::string good = makeSnapshot();
    std::string msg =
        restoreExpectingFatal(good, presets::byName("ddr3_1600"));
    EXPECT_NE(msg.find("mismatch"), std::string::npos) << msg;
}

TEST(CkptDamage, ckpt_one_ps_trcd_change_is_rejected)
{
    // The config hash is exact: one tick of tRCD is a different config.
    const std::string good = makeSnapshot();
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.timing.tRCD += 1;
    std::string msg = restoreExpectingFatal(good, cfg);
    EXPECT_NE(msg.find("mismatch"), std::string::npos) << msg;
}

TEST(CkptDamage, ckpt_other_format_version_is_rejected)
{
    // Bytes 4..7 of the file header hold the format version.
    std::string old = makeSnapshot();
    old[4] = static_cast<char>(ckpt::kFormatVersion - 1);
    std::string msg = restoreExpectingFatal(old);
    EXPECT_NE(msg.find(std::to_string(ckpt::kFormatVersion - 1)),
              std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(ckpt::kFormatVersion)),
              std::string::npos) << msg;
}

/** Every byte of the snapshot matters: flips anywhere never crash. */
TEST(CkptDamage, ckpt_bit_flip_sweep_never_restores_silently)
{
    const std::string good = makeSnapshot();
    Random rng(42);
    for (int i = 0; i < 24; ++i) {
        const std::size_t pos = rng.next() % good.size();
        std::string bad = good;
        bad[pos] = static_cast<char>(bad[pos] ^ (1u << (i % 8)));
        if (bad == good)
            continue;
        BuiltSystem post = buildSystem(
            presets::byName("ddr3_1333"), "random",
            harness::CtrlModel::Event, 60, kRequests, kSeed);
        setThrowOnError(true);
        try {
            ckpt::restoreFromString(post.tb->sim(), bad);
            // A flip in dead padding may legitimately restore; if it
            // does, the simulation must still be able to continue.
            post.tb->runToCompletion([&] { return post.gen->done(); });
        } catch (const std::runtime_error &) {
            // clean fatal: expected for most positions
        }
        setThrowOnError(false);
    }
}

TEST(CkptWarmStart, ckpt_warm_rows_equal_cold_rows)
{
    exec::SweepSpec spec;
    spec.presets = {"ddr3_1333", "lpddr3_1600"};
    spec.patterns = {"random"};
    spec.numSeeds = 2;
    spec.requests = 200;
    spec.warmupRequests = 100;

    std::vector<exec::SweepPoint> grid = exec::expandGrid(spec);
    ASSERT_EQ(grid.size(), 4u);

    // One snapshot per config group, shared by the group's seeds.
    std::vector<std::string> snapshots(2);
    for (std::size_t g = 0; g < 2; ++g)
        snapshots[g] =
            exec::captureWarmupSnapshot(grid[g * 2], spec);

    for (const exec::SweepPoint &pt : grid) {
        exec::SweepRow cold = exec::runSweepPoint(pt, spec);
        exec::SweepRow warm = exec::runMeasuredFromSnapshot(
            pt, spec, snapshots[exec::configGroupOf(pt, spec)]);
        EXPECT_EQ(exec::toCsv(warm), exec::toCsv(cold))
            << "point " << pt.index;
    }
}

TEST(CkptJson, ckpt_json_dump_lists_every_section)
{
    const std::string snapshot = makeSnapshot();
    std::istringstream is(snapshot);
    std::ostringstream os;
    ckpt::dumpJson(is, os);
    const std::string json = os.str();
    for (const char *section : {"\"sim\"", "\"stats\"", "\"mem_ctrl\"",
                                "\"gen\"", "\"format_version\""})
        EXPECT_NE(json.find(section), std::string::npos)
            << "missing " << section;
}

} // namespace
} // namespace dramctrl
