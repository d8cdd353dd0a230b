/**
 * @file
 * Tests of the validation subsystem itself: the config fuzzer and
 * differential runner must pass on a clean build, an injected timing
 * fault must be caught by the online protocol audit and shrink to a
 * tiny reproducer, repro files must round-trip exactly through JSON,
 * the online checker must agree with batch mode on identical logs,
 * and the ddmin shrinker must converge under arbitrary predicates.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dram/cmd_log.hh"
#include "dram/dram_ctrl.hh"
#include "dram/protocol_checker.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "test_util.hh"
#include "validate/config_fuzzer.hh"
#include "validate/diff_runner.hh"
#include "validate/json_io.hh"
#include "validate/repro.hh"
#include "validate/shrinker.hh"

namespace dramctrl {
namespace validate {
namespace {

/** A small deterministic scenario shared by the fault tests. */
FuzzCase
fixedCase()
{
    FuzzCase fc;
    fc.cfg = testutil::noRefreshConfig();
    fc.presetName = "ddr3_1333";
    fc.stream.numRequests = 60;
    fc.stream.windowSize = 1ULL << 16;
    fc.stream.readPct = 100; // reads exercise tRCD on every row miss
    fc.stream.minITT = fromNs(5.0);
    fc.stream.maxITT = fromNs(40.0);
    return fc;
}

TEST(ValidateFuzz, ShortFuzzBatchPasses)
{
    FuzzerOptions fopts;
    fopts.numRequests = 80; // keep the batch quick
    for (std::uint64_t i = 0; i < 20; ++i) {
        Random rng(0xf00d + i);
        FuzzCase fc = sampleCase(rng, fopts);
        std::uint64_t streamSeed = rng.next();
        DiffResult dr = runDiff(fc, streamSeed);
        EXPECT_TRUE(dr.pass)
            << "case " << i << " (" << summarize(fc) << "):\n"
            << dr.describe();
    }
}

TEST(ValidateFuzz, InjectedTRCDFaultIsCaught)
{
    FuzzCase fc = fixedCase();
    DiffOptions opts;
    opts.injectTRCDScale = 0.5;
    opts.runCycle = false; // the fault is in the event model

    DiffResult dr = runDiff(fc, 99, opts);
    ASSERT_FALSE(dr.pass);
    EXPECT_GT(dr.event.protocolViolations, 0u);
    bool namesTRCD = false;
    for (const std::string &s : dr.event.violationSamples)
        if (s.find("tRCD") != std::string::npos)
            namesTRCD = true;
    EXPECT_TRUE(namesTRCD) << dr.describe();
}

TEST(ValidateFuzz, InjectedFaultShrinksToTinyRepro)
{
    FuzzCase fc = fixedCase();
    DiffOptions opts;
    opts.injectTRCDScale = 0.5;
    opts.runCycle = false;

    RequestStream full = generateStream(fc.stream, 99);
    ASSERT_FALSE(runDiffStream(fc, full, opts).pass);

    ShrinkOutcome sh = shrinkStream(fc, full, opts);
    EXPECT_TRUE(sh.minimal);
    // A single read on a closed bank already violates halved tRCD.
    EXPECT_LE(sh.stream.size(), 2u);
    EXPECT_FALSE(runDiffStream(fc, sh.stream, opts).pass);
}

TEST(ValidateFuzz, ReproRoundTripsThroughJson)
{
    ReproFile repro;
    repro.fc = fixedCase();
    repro.streamSeed = 99;
    repro.stream = generateStream(repro.fc.stream, 99);
    repro.stream.reqs.resize(5);
    repro.opts.injectTRCDScale = 0.5;
    repro.opts.runCycle = false;
    repro.opts.bandwidthRelTol = 0.25;
    repro.note = "round-trip test";

    std::string text = toJson(repro).dump(2);

    Json parsed;
    std::string err;
    ASSERT_TRUE(parseJson(text, parsed, &err)) << err;
    ReproFile back;
    ASSERT_TRUE(fromJson(parsed, back, &err)) << err;

    EXPECT_EQ(back.fc.presetName, repro.fc.presetName);
    EXPECT_EQ(back.fc.cfg.timing.tRCD, repro.fc.cfg.timing.tRCD);
    EXPECT_EQ(back.fc.cfg.timing.tREFI, repro.fc.cfg.timing.tREFI);
    EXPECT_EQ(back.fc.cfg.readBufferSize, repro.fc.cfg.readBufferSize);
    EXPECT_EQ(back.fc.stream.numRequests, repro.fc.stream.numRequests);
    EXPECT_EQ(back.streamSeed, repro.streamSeed);
    EXPECT_EQ(back.opts.injectTRCDScale, repro.opts.injectTRCDScale);
    EXPECT_EQ(back.opts.runCycle, repro.opts.runCycle);
    EXPECT_EQ(back.opts.bandwidthRelTol, repro.opts.bandwidthRelTol);
    EXPECT_EQ(back.note, repro.note);
    ASSERT_EQ(back.stream.reqs.size(), repro.stream.reqs.size());
    for (std::size_t i = 0; i < repro.stream.reqs.size(); ++i)
        EXPECT_EQ(back.stream.reqs[i], repro.stream.reqs[i]) << i;

    EXPECT_EQ(configFingerprint(back.fc.cfg),
              configFingerprint(repro.fc.cfg));

    // And the replayed repro still fails exactly as recorded.
    EXPECT_FALSE(replay(back).pass);

    // A config with every field away from its default — durations off
    // by one tick, doubles by one ulp — survives the trip exactly.
    ReproFile full = repro;
    full.fc.cfg = DRAMCtrlConfig();
    full.fc.cfg.plugins.emplace_back();
    full.fc.cfg.plugins.back().kind = "ecc";
    for (const testutil::FieldStep &step : testutil::everyFieldStep())
        step.apply(full.fc.cfg);
    ASSERT_TRUE(parseJson(toJson(full).dump(2), parsed, &err)) << err;
    ReproFile fullBack;
    ASSERT_TRUE(fromJson(parsed, fullBack, &err)) << err;
    EXPECT_EQ(configFingerprint(fullBack.fc.cfg),
              configFingerprint(full.fc.cfg))
        << full.fc.cfg.describe() << "\nvs\n"
        << fullBack.fc.cfg.describe();
}

TEST(ValidateFuzz, ReproFormatV1IsRejected)
{
    Json parsed;
    std::string err;
    ASSERT_TRUE(parseJson(R"({"format": "dramctrl-fuzz-repro-v1"})",
                          parsed, &err));
    ReproFile back;
    EXPECT_FALSE(fromJson(parsed, back, &err));
    EXPECT_NE(err.find("dramctrl-fuzz-repro-v1"), std::string::npos)
        << err;
    EXPECT_NE(err.find("dramctrl-fuzz-repro-v2"), std::string::npos)
        << err;
}

TEST(ValidateFuzz, OnlineCheckerMatchesBatchMode)
{
    // Produce a command log from a deliberately broken controller.
    DRAMCtrlConfig cfg = testutil::noRefreshConfig();
    Simulator sim;
    DRAMCtrl ctrl(sim, "ctrl", cfg,
                  AddrRange(0, cfg.org.channelCapacity));
    ctrl.testScaleTRCD(0.5);
    CmdLogger log;
    ctrl.setCmdLogger(&log);
    testutil::TestRequestor req(sim, "req");
    req.port().bind(ctrl.port());

    Random rng(3);
    Tick when = 0;
    for (unsigned i = 0; i < 80; ++i) {
        when += fromNs(rng.uniform(5, 40));
        req.inject(when, MemCmd::ReadReq,
                   rng.uniform(0, 1023) * 64);
    }
    sim.run(fromUs(200));
    ASSERT_TRUE(req.allResponded());

    ProtocolChecker batch(cfg.org, cfg.timing);
    auto batchViolations = batch.check(log.log());
    ASSERT_GT(batchViolations.size(), 0u);

    ProtocolChecker online(cfg.org, cfg.timing);
    for (const CmdRecord &r : log.log())
        online.observe(r);
    online.finish();

    EXPECT_EQ(online.violationCount(), batchViolations.size());
    EXPECT_EQ(online.commandsChecked(), log.log().size());
    EXPECT_EQ(online.pendingRecords(), 0u);
    ASSERT_FALSE(online.violations().empty());
    EXPECT_EQ(online.violations().front().rule,
              batchViolations.front().rule);
}

TEST(ValidateFuzz, ShrinkerConvergesUnderArbitraryPredicate)
{
    RequestStream s;
    for (unsigned i = 0; i < 40; ++i)
        s.reqs.push_back({fromNs(10.0), i * 64, 64, true});

    // "Interesting" iff the two magic requests both survive: ddmin
    // must isolate exactly that pair.
    auto fails = [](const RequestStream &c) {
        bool a = false, b = false;
        for (const StreamRequest &r : c.reqs) {
            a |= r.addr == 7 * 64;
            b |= r.addr == 29 * 64;
        }
        return a && b;
    };

    ShrinkOutcome sh = shrinkStreamWith(s, fails);
    EXPECT_TRUE(sh.minimal);
    ASSERT_EQ(sh.stream.size(), 2u);
    EXPECT_EQ(sh.stream.reqs[0].addr, 7u * 64);
    EXPECT_EQ(sh.stream.reqs[1].addr, 29u * 64);
    EXPECT_GT(sh.evaluations, 0u);
}

TEST(ValidateFuzz, SampledConfigsAreValidAndQueueSafe)
{
    FuzzerOptions fopts;
    for (std::uint64_t i = 0; i < 200; ++i) {
        Random rng(0xabc + i);
        FuzzCase fc = sampleCase(rng, fopts);
        // check() fatals on inconsistency; reaching here means the
        // sample is self-consistent. Verify the anti-deadlock floor:
        // the largest possible request must fit the read queue.
        unsigned maxBytes = fc.stream.mixedSizes
                                ? 256
                                : fc.stream.blockSize;
        unsigned worst = maxBytes / fc.cfg.org.burstSize() + 1;
        EXPECT_GE(fc.cfg.readBufferSize, worst);
        EXPECT_GE(fc.cfg.writeBufferSize, worst);
        EXPECT_LE(fc.stream.windowSize, fc.cfg.org.channelCapacity);
    }
}

} // namespace
} // namespace validate
} // namespace dramctrl
