/**
 * @file
 * Sharded-engine and sharded-crossbar tests (`ctest -R Shard`).
 *
 * The load-bearing property is determinism: a sharded simulation must
 * produce byte-identical stats and command streams at every
 * --sim-threads setting, because the conservative engine's window
 * boundaries and barrier merge order are pure functions of the model
 * state. These tests run the same systems at 1, 2 and 8 threads and
 * compare full stats JSON dumps and merged command logs for equality.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/ckpt.hh"
#include "dram/dram_presets.hh"
#include "harness/multichannel.hh"
#include "harness/stimulus.hh"
#include "sim/shard.hh"
#include "sim/simulator.hh"
#include "trafficgen/linear_gen.hh"
#include "trafficgen/random_gen.hh"
#include "xbar/sharded_xbar.hh"

namespace dramctrl {
namespace {

// --------------------------------------------------------------------
// Engine-level ping-pong
// --------------------------------------------------------------------

/** Bounces a token to its peer with a fixed delay. */
class Pinger : public SimObject
{
  public:
    Pinger(Simulator &sim, std::string name, Tick delay)
        : SimObject(sim, std::move(name)), delay_(delay),
          inbox_(*this, "in",
                 [this](Tick t, Packet *p, std::uint64_t a) {
                     (void)t;
                     (void)p;
                     return onToken(a);
                 })
    {
    }

    void setPeer(Pinger *peer) { peer_ = peer; }
    ShardInbox &inbox() { return inbox_; }

    unsigned received = 0;
    Tick lastTick = 0;

  private:
    bool
    onToken(std::uint64_t hop)
    {
        ++received;
        lastTick = curTick();
        if (hop > 0)
            simulator().shardEngine().post(
                shardId(), peer_->shardId(), curTick() + delay_,
                peer_->inbox(), nullptr, hop - 1);
        return true;
    }

    Tick delay_;
    Pinger *peer_ = nullptr;
    ShardInbox inbox_;
};

struct PingResult
{
    Tick finalTick;
    unsigned a, b;
    std::uint64_t windows, messages;

    bool
    operator==(const PingResult &o) const
    {
        return finalTick == o.finalTick && a == o.a && b == o.b &&
               windows == o.windows && messages == o.messages;
    }
};

PingResult
runPingPong(unsigned threads, std::uint64_t hops, Tick delay)
{
    Simulator sim("pingpong");
    sim.configureShards(2, delay);
    sim.setSimThreads(threads);

    auto a = std::make_unique<Pinger>(sim, "a", delay);
    std::unique_ptr<Pinger> b;
    {
        Simulator::ShardScope scope(sim, 1);
        b = std::make_unique<Pinger>(sim, "b", delay);
    }
    EXPECT_EQ(a->shardId(), 0u);
    EXPECT_EQ(b->shardId(), 1u);
    a->setPeer(b.get());
    b->setPeer(a.get());

    sim.shardEngine().post(0, 1, delay, b->inbox(), nullptr, hops);
    Tick end = sim.run(kMaxTick);
    return PingResult{end, a->received, b->received,
                      sim.shardEngine().numWindows(),
                      sim.shardEngine().numMessages()};
}

TEST(ShardEngine, PingPongCountsAndTiming)
{
    const Tick delay = fromNs(5.0);
    PingResult r = runPingPong(1, 10, delay);
    // 11 tokens delivered: the seed plus ten bounces, alternating
    // b, a, b, ... — six to b, five to a.
    EXPECT_EQ(r.b, 6u);
    EXPECT_EQ(r.a, 5u);
    EXPECT_EQ(r.messages, 11u);
    // The last token lands at 11 * delay; the run ends at that final
    // window's boundary, one lookahead later.
    EXPECT_EQ(r.finalTick, 12 * delay);
}

TEST(ShardEngine, ThreadCountInvariant)
{
    const Tick delay = fromNs(3.0);
    PingResult one = runPingPong(1, 101, delay);
    PingResult two = runPingPong(2, 101, delay);
    PingResult eight = runPingPong(8, 101, delay);
    EXPECT_TRUE(one == two);
    EXPECT_TRUE(one == eight);
}

TEST(ShardEngine, FiniteHorizonReachesExactly)
{
    Simulator sim("horizon");
    sim.configureShards(2, fromNs(4.0));
    Tick end = sim.run(fromNs(123.0));
    EXPECT_EQ(end, fromNs(123.0));
    EXPECT_EQ(sim.shardQueue(1).curTick(), fromNs(123.0));
}

// --------------------------------------------------------------------
// Multi-channel system determinism
// --------------------------------------------------------------------

struct SysResult
{
    std::string statsJson;
    std::string cmdLog;
    Tick finalTick;
};

/** Dump every channel's command log, channel-major, tick-sorted. */
std::string
mergedCmdLog(std::vector<CmdLogger> &loggers)
{
    std::ostringstream os;
    for (unsigned ch = 0; ch < loggers.size(); ++ch) {
        auto log = loggers[ch].log();
        std::stable_sort(log.begin(), log.end(),
                         [](const CmdRecord &x, const CmdRecord &y) {
                             return x.tick < y.tick;
                         });
        for (const CmdRecord &rec : log)
            os << "ch" << ch << " " << rec.toString() << "\n";
    }
    return os.str();
}

SysResult
runSystem(unsigned channels, unsigned threads, const std::string &shape,
          std::uint64_t requests)
{
    harness::MultiChannelConfig cfg;
    cfg.channels = channels;
    cfg.ctrl = presets::byName("ddr3_1600");
    cfg.ctrl.writeLowThreshold = 0.0;
    cfg.ctrl.check();
    cfg.simThreads = threads;

    harness::MultiChannelSystem sys(cfg);
    auto &loggers = sys.attachCmdLoggers();

    // Jittered arrivals (uniform 3-9 ns) on purpose: the builder's
    // Stimulus has one fixed ITT, and the sharded engine must also be
    // deterministic under irregular per-channel timing.
    GenConfig gc;
    gc.windowSize = 1ULL << 22;
    gc.minITT = fromNs(3.0);
    gc.maxITT = fromNs(9.0);
    gc.numRequests = requests;
    for (unsigned i = 0; i < channels; ++i) {
        GenConfig g = harness::sliceGenWindow(gc, i, channels,
                                              sys.totalCapacity());
        g.seed = 7 + i;
        if (shape == "linear") {
            g.readPct = 100;
            sys.addGen<LinearGen>(g);
        } else if (shape == "mixed") {
            g.readPct = 50;
            sys.addGen<RandomGen>(g);
        } else {
            g.readPct = 100;
            sys.addGen<RandomGen>(g);
        }
    }

    SysResult r;
    r.finalTick = sys.runToCompletion();
    std::ostringstream os;
    sys.sim().dumpStatsJson(os);
    r.statsJson = os.str();
    r.cmdLog = mergedCmdLog(loggers);
    return r;
}

class ShardDeterminism
    : public testing::TestWithParam<std::tuple<unsigned, const char *>>
{
};

TEST_P(ShardDeterminism, ByteIdenticalAcrossThreadCounts)
{
    unsigned channels = std::get<0>(GetParam());
    std::string shape = std::get<1>(GetParam());
    SysResult one = runSystem(channels, 1, shape, 120);
    SysResult two = runSystem(channels, 2, shape, 120);
    SysResult eight = runSystem(channels, 8, shape, 120);

    EXPECT_EQ(one.finalTick, two.finalTick);
    EXPECT_EQ(one.finalTick, eight.finalTick);
    EXPECT_EQ(one.statsJson, two.statsJson);
    EXPECT_EQ(one.statsJson, eight.statsJson);
    EXPECT_FALSE(one.cmdLog.empty());
    EXPECT_EQ(one.cmdLog, two.cmdLog);
    EXPECT_EQ(one.cmdLog, eight.cmdLog);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShardDeterminism,
    testing::Values(std::make_tuple(2u, "random"),
                    std::make_tuple(4u, "mixed"),
                    std::make_tuple(4u, "linear"),
                    std::make_tuple(8u, "random")),
    [](const testing::TestParamInfo<std::tuple<unsigned, const char *>>
           &info) {
        return "ch" + std::to_string(std::get<0>(info.param)) + "_" +
               std::get<1>(info.param);
    });

// --------------------------------------------------------------------
// Checkpoint under N threads, restore under M
// --------------------------------------------------------------------

/** Build the canonical 4-channel mixed system without running it. */
std::unique_ptr<harness::MultiChannelSystem>
makeCkptSystem(unsigned threads)
{
    harness::MultiChannelConfig cfg;
    cfg.channels = 4;
    cfg.ctrl = presets::byName("ddr3_1600");
    cfg.ctrl.writeLowThreshold = 0.0;
    cfg.ctrl.check();
    cfg.simThreads = threads;

    auto sys = std::make_unique<harness::MultiChannelSystem>(cfg);
    // Jittered arrivals, like runSystem(): the checkpoint then saves
    // and restores each generator partway through its ITT draws.
    GenConfig gc;
    gc.windowSize = 1ULL << 22;
    gc.minITT = fromNs(3.0);
    gc.maxITT = fromNs(9.0);
    gc.numRequests = 400;
    gc.readPct = 50;
    for (unsigned i = 0; i < 4; ++i) {
        GenConfig g = harness::sliceGenWindow(gc, i, 4,
                                              sys->totalCapacity());
        g.seed = 21 + i;
        sys->addGen<RandomGen>(g);
    }
    return sys;
}

std::string
finalStats(harness::MultiChannelSystem &sys)
{
    std::ostringstream os;
    sys.sim().dumpStatsJson(os);
    return os.str();
}

TEST(ShardCkpt, SaveUnderNRestoreUnderMMatchesUninterrupted)
{
    // Reference: uninterrupted run (sequential).
    auto ref = makeCkptSystem(1);
    Tick ref_end = ref->runToCompletion();
    std::string want = finalStats(*ref);

    struct ThreadPair
    {
        unsigned saveThreads, restoreThreads;
    };
    for (ThreadPair tp : {ThreadPair{2, 1}, ThreadPair{1, 8},
                          ThreadPair{8, 2}}) {
        auto pre = makeCkptSystem(tp.saveThreads);
        // Stop mid-flight at an absolute poll boundary — the same
        // horizon sequence runToCompletion() uses — so the resumed
        // run sees identical window boundaries.
        harness::runUntil(
            pre->sim(), [] { return false; }, fromUs(1.0),
            fromUs(3.0));
        ASSERT_FALSE(pre->drained());
        std::string snapshot = ckpt::saveToString(pre->sim());

        auto post = makeCkptSystem(tp.restoreThreads);
        ckpt::restoreFromString(post->sim(), snapshot);
        Tick end = post->runToCompletion();

        EXPECT_EQ(end, ref_end)
            << "save@" << tp.saveThreads << " restore@"
            << tp.restoreThreads;
        EXPECT_EQ(finalStats(*post), want)
            << "save@" << tp.saveThreads << " restore@"
            << tp.restoreThreads;
    }
}

TEST(ShardCkpt, ShardCountMismatchIsFatal)
{
    auto pre = makeCkptSystem(1);
    harness::runUntil(
        pre->sim(), [] { return false; }, fromUs(1.0), fromUs(1.0));
    std::string snapshot = ckpt::saveToString(pre->sim());

    harness::MultiChannelConfig cfg;
    cfg.channels = 2;
    cfg.ctrl = presets::byName("ddr3_1600");
    cfg.ctrl.writeLowThreshold = 0.0;
    cfg.ctrl.check();
    harness::MultiChannelSystem other(cfg);
    setThrowOnError(true);
    EXPECT_THROW(ckpt::restoreFromString(other.sim(), snapshot),
                 std::runtime_error);
    setThrowOnError(false);
}

TEST(ShardSystem, SingleChannelUnshardedStillWorks)
{
    SysResult r = runSystem(1, 1, "random", 200);
    EXPECT_GT(r.finalTick, 0u);
    EXPECT_FALSE(r.cmdLog.empty());
}

TEST(ShardSystem, RequestsCompleteAndStatsAddUp)
{
    harness::MultiChannelConfig cfg;
    cfg.channels = 4;
    cfg.ctrl = presets::byName("ddr3_1600");
    cfg.ctrl.writeLowThreshold = 0.0;
    cfg.ctrl.check();
    cfg.simThreads = 2;

    harness::MultiChannelSystem sys(cfg);
    harness::Stimulus stim;
    stim.requests = 4 * 150;
    stim.seed = 11;
    stim.windowBytes = 1ULL << 20;
    harness::Requestors reqs = harness::attachStimulus(sys, stim);
    sys.runToCompletion();

    for (unsigned i = 0; i < sys.numGens(); ++i) {
        EXPECT_TRUE(sys.gen(i).done());
        EXPECT_EQ(sys.gen(i).genStats().recvResponses.value(), 150.0);
    }
    EXPECT_TRUE(sys.xbar().idle());
    EXPECT_GT(reqs.avgReadLatencyNs(), 0.0);
    EXPECT_EQ(reqs.responses(), 4u * 150);
    // Random addresses interleave over all four channels; every
    // controller must have seen traffic.
    for (unsigned ch = 0; ch < sys.numChannels(); ++ch)
        EXPECT_GT(sys.ctrl(ch).achievedBandwidthGBs(), 0.0);
}

} // namespace
} // namespace dramctrl
