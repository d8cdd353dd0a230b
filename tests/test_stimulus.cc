/**
 * @file
 * Tests for the stimulus builder (harness/stimulus.hh): which
 * requestors each pattern attaches to a single- and a multi-channel
 * system, the multi-channel slice-and-seed rule, the trace fan-out,
 * the trace's address-span check and the validity rules.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "dram/dram_presets.hh"
#include "exec/batch_runner.hh"
#include "harness/multichannel.hh"
#include "harness/stimulus.hh"
#include "harness/testbench.hh"
#include "sim/logging.hh"
#include "trafficgen/dram_gen.hh"
#include "trafficgen/linear_gen.hh"
#include "trafficgen/random_gen.hh"
#include "trafficgen/trace.hh"

namespace dramctrl {
namespace {

using harness::Pattern;
using harness::Stimulus;

DRAMCtrlConfig
drainingConfig()
{
    DRAMCtrlConfig cfg = presets::byName("ddr3_1600");
    cfg.writeLowThreshold = 0.0;
    cfg.check();
    return cfg;
}

harness::MultiChannelConfig
fourChannels()
{
    harness::MultiChannelConfig mcfg;
    mcfg.channels = 4;
    mcfg.ctrl = drainingConfig();
    return mcfg;
}

const std::string kExampleTrace = std::string(TRACES_DIR) +
                                  "/example.dtrc";

TEST(Stimulus, PatternNamesRoundTrip)
{
    for (Pattern p : {Pattern::Linear, Pattern::Random, Pattern::Dram,
                      Pattern::Trace}) {
        Pattern back = Pattern::Random;
        ASSERT_TRUE(harness::fromString(harness::toString(p), back));
        EXPECT_EQ(back, p);
    }
    Pattern out = Pattern::Linear;
    EXPECT_FALSE(harness::fromString("bogus", out));
    EXPECT_FALSE(harness::fromString("Linear", out));
    EXPECT_EQ(out, Pattern::Linear);
}

TEST(Stimulus, SingleChannelAttachesOneRequestorOfThePatternsKind)
{
    for (Pattern p : {Pattern::Linear, Pattern::Random, Pattern::Dram,
                      Pattern::Trace}) {
        harness::SingleChannelSystem tb(drainingConfig(),
                                        harness::CtrlModel::Event);
        Stimulus s;
        s.pattern = p;
        s.requests = 200;
        s.tracePath = kExampleTrace;
        harness::Requestors r = harness::attachStimulus(tb, s);
        SCOPED_TRACE(harness::toString(p));
        if (p == Pattern::Trace) {
            EXPECT_TRUE(r.gens.empty());
            ASSERT_EQ(r.players.size(), 1u);
        } else {
            EXPECT_TRUE(r.players.empty());
            ASSERT_EQ(r.gens.size(), 1u);
            BaseGen *g = r.gens[0];
            EXPECT_EQ(dynamic_cast<LinearGen *>(g) != nullptr,
                      p == Pattern::Linear);
            EXPECT_EQ(dynamic_cast<RandomGen *>(g) != nullptr,
                      p == Pattern::Random);
            EXPECT_EQ(dynamic_cast<DramGen *>(g) != nullptr,
                      p == Pattern::Dram);
            // The whole budget and the seed itself, in the capped
            // window at address 0.
            EXPECT_EQ(g->genConfig().numRequests, 200u);
            EXPECT_EQ(g->genConfig().seed, 1u);
            EXPECT_EQ(g->genConfig().startAddr, 0u);
            EXPECT_EQ(g->genConfig().windowSize, 1ULL << 26);
        }
        tb.runToCompletion([&] { return r.done(); });
        EXPECT_TRUE(r.done());
        EXPECT_GT(r.responses(), 0u);
    }
}

TEST(Stimulus, MultiChannelSlicesTheBudgetAndDerivesSeeds)
{
    for (Pattern p : {Pattern::Linear, Pattern::Random}) {
        harness::MultiChannelSystem mc(fourChannels());
        Stimulus s;
        s.pattern = p;
        s.requests = 402; // 100 each: the remainder is dropped
        s.seed = 77;
        s.windowBytes = 1ULL << 20;
        harness::Requestors r = harness::attachStimulus(mc, s);
        SCOPED_TRACE(harness::toString(p));
        ASSERT_EQ(r.gens.size(), 4u);
        ASSERT_EQ(mc.numGens(), 4u);
        EXPECT_TRUE(r.players.empty());

        const std::uint64_t slice = mc.totalCapacity() / 4;
        for (unsigned i = 0; i < 4; ++i) {
            const GenConfig &gc = r.gens[i]->genConfig();
            EXPECT_EQ(r.gens[i], &mc.gen(i));
            EXPECT_EQ(dynamic_cast<LinearGen *>(r.gens[i]) != nullptr,
                      p == Pattern::Linear);
            EXPECT_EQ(gc.startAddr, slice * i);
            EXPECT_EQ(gc.windowSize, 1ULL << 20);
            EXPECT_EQ(gc.seed, exec::deriveSeed(77, i));
            EXPECT_EQ(gc.numRequests, 100u);
        }
        mc.runToCompletion();
        EXPECT_TRUE(r.done());
        EXPECT_EQ(r.responses(), 400u);
        EXPECT_GT(r.avgReadLatencyNs(), 0.0);
    }
}

TEST(Stimulus, MultiChannelGivesEveryGeneratorAtLeastOneRequest)
{
    harness::MultiChannelSystem mc(fourChannels());
    Stimulus s;
    s.requests = 2;
    harness::Requestors r = harness::attachStimulus(mc, s);
    ASSERT_EQ(r.gens.size(), 4u);
    for (BaseGen *g : r.gens)
        EXPECT_EQ(g->genConfig().numRequests, 1u);
}

TEST(Stimulus, TraceFansOutOnePlayerPerRecordedSource)
{
    const std::string path =
        testing::TempDir() + "stimulus_fanout_" +
        std::to_string(::getpid()) + ".dtrc";
    {
        harness::MultiChannelSystem mc(fourChannels());
        mc.enableCapture(path);
        Stimulus s;
        s.requests = 400;
        harness::attachStimulus(mc, s);
        mc.runToCompletion();
        mc.finishCapture();
    }

    Stimulus replay;
    replay.pattern = Pattern::Trace;
    replay.tracePath = path;
    harness::MultiChannelSystem mc(fourChannels());
    harness::Requestors r = harness::attachStimulus(mc, replay);
    EXPECT_TRUE(r.gens.empty());
    EXPECT_EQ(mc.numGens(), 0u);
    ASSERT_EQ(r.players.size(), 4u);
    mc.runToCompletion();
    EXPECT_TRUE(r.done());
    EXPECT_EQ(r.responses(), 400u);

    // A trace recorded from one source replays through one player.
    replay.tracePath = kExampleTrace;
    harness::MultiChannelSystem one(fourChannels());
    EXPECT_EQ(harness::attachStimulus(one, replay).players.size(), 1u);
    std::remove(path.c_str());
}

/** Run @p s on @p sys; return the fatal() message, or "" if none. */
template <typename System>
std::string
fatalOfReplay(System &sys, const Stimulus &s)
{
    setThrowOnError(true);
    std::string what;
    try {
        harness::attachStimulus(sys, s);
        sys.sim().run(fromUs(10.0));
    } catch (const std::runtime_error &e) {
        what = e.what();
    }
    setThrowOnError(false);
    return what;
}

TEST(Stimulus, TraceRecordOutsideTheSystemsSpanIsFatal)
{
    // A record beyond the memory behind the system (e.g. a trace
    // captured on more channels) must stop the replay with a fatal()
    // naming the file, the record, the address and the span, instead
    // of reaching a controller that does not serve it.
    const std::uint64_t cap = drainingConfig().org.channelCapacity;
    const std::string path = testing::TempDir() + "stimulus_span_" +
                             std::to_string(::getpid()) + ".txt";
    saveTrace(path, {{0, true, 0x40, 64},
                     {10, true, 4 * cap + 0x80, 64},
                     {20, true, 0x80, 64}});
    Stimulus s;
    s.pattern = Pattern::Trace;
    s.tracePath = path;

    char want[160];
    harness::SingleChannelSystem tb(drainingConfig(),
                                    harness::CtrlModel::Event);
    std::snprintf(want, sizeof(want),
                  "record 1: address 0x%llx is outside the system's "
                  "address span [0x0, 0x%llx)",
                  static_cast<unsigned long long>(4 * cap + 0x80),
                  static_cast<unsigned long long>(cap));
    std::string what = fatalOfReplay(tb, s);
    EXPECT_NE(what.find("fatal: trace '" + path + "' " + want),
              std::string::npos)
        << what;

    // On four channels the span is four times as wide. Here the bad
    // record comes first, so the fatal() fires at startup: this test
    // catches it and tears the system down, and a fatal() thrown
    // inside a sharded window would leave undelivered messages behind.
    saveTrace(path, {{0, true, 4 * cap + 0x80, 64}});
    harness::MultiChannelSystem mc(fourChannels());
    std::snprintf(want, sizeof(want),
                  "record 0: address 0x%llx is outside the system's "
                  "address span [0x0, 0x%llx)",
                  static_cast<unsigned long long>(4 * cap + 0x80),
                  static_cast<unsigned long long>(4 * cap));
    what = fatalOfReplay(mc, s);
    EXPECT_NE(what.find(want), std::string::npos) << what;
    std::remove(path.c_str());
}

TEST(Stimulus, ValidityRules)
{
    Stimulus dram;
    dram.pattern = Pattern::Dram;
    EXPECT_EQ(harness::checkStimulus(dram, 1), "");
    EXPECT_NE(harness::checkStimulus(dram, 4).find("single-channel"),
              std::string::npos);

    Stimulus trace;
    trace.pattern = Pattern::Trace;
    EXPECT_NE(harness::checkStimulus(trace, 1).find("trace file"),
              std::string::npos);
    trace.tracePath = kExampleTrace;
    EXPECT_EQ(harness::checkStimulus(trace, 4), "");

    // attachStimulus() enforces the same rules with a fatal().
    setThrowOnError(true);
    harness::MultiChannelSystem mc(fourChannels());
    EXPECT_THROW(harness::attachStimulus(mc, dram), std::runtime_error);
    EXPECT_EQ(mc.numGens(), 0u);
    harness::SingleChannelSystem tb(drainingConfig(),
                                    harness::CtrlModel::Event);
    trace.tracePath.clear();
    EXPECT_THROW(harness::attachStimulus(tb, trace), std::runtime_error);
    setThrowOnError(false);
}

} // namespace
} // namespace dramctrl
