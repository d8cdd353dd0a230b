/**
 * @file
 * Trace-point tests: channel enable/disable and mask arithmetic, name
 * parsing, sink routing and fan-out, tick stamping from the active
 * simulator, sink output formats, and the tick-prefixed warn()/inform()
 * satellite.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "test_util.hh"
#include "validate/json_io.hh"

namespace dramctrl {
namespace {

using obs::TraceChannel;

/** Sink that records everything it receives. */
class CaptureSink : public obs::TraceSink
{
  public:
    struct Line
    {
        Tick tick;
        TraceChannel ch;
        std::string msg;
    };

    void
    write(Tick tick, TraceChannel ch, const std::string &msg) override
    {
        lines.push_back(Line{tick, ch, msg});
    }

    std::vector<Line> lines;
};

/** Every test starts and ends with trace state fully off. */
class ObsTraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::setChannelMask(0);
        obs::clearSinks();
    }

    void
    TearDown() override
    {
        obs::setChannelMask(0);
        obs::clearSinks();
    }
};

TEST_F(ObsTraceTest, EnableDisableSingleChannel)
{
    EXPECT_FALSE(obs::traceEnabled(TraceChannel::DRAMCtrl));
    obs::enableChannel(TraceChannel::DRAMCtrl);
    EXPECT_TRUE(obs::traceEnabled(TraceChannel::DRAMCtrl));
    EXPECT_FALSE(obs::traceEnabled(TraceChannel::XBar));

    obs::disableChannel(TraceChannel::DRAMCtrl);
    EXPECT_FALSE(obs::traceEnabled(TraceChannel::DRAMCtrl));
    EXPECT_EQ(obs::channelMask(), 0u);
}

TEST_F(ObsTraceTest, MaskCoversEveryChannel)
{
    obs::setChannelMask(obs::allChannels());
    for (unsigned i = 0;
         i < static_cast<unsigned>(TraceChannel::NumChannels); ++i)
        EXPECT_TRUE(obs::traceEnabled(static_cast<TraceChannel>(i)))
            << obs::toString(static_cast<TraceChannel>(i));
}

TEST_F(ObsTraceTest, EnableChannelsByName)
{
    EXPECT_TRUE(obs::enableChannelsByName("DRAMCtrl,Refresh"));
    EXPECT_TRUE(obs::traceEnabled(TraceChannel::DRAMCtrl));
    EXPECT_TRUE(obs::traceEnabled(TraceChannel::Refresh));
    EXPECT_FALSE(obs::traceEnabled(TraceChannel::Power));
}

TEST_F(ObsTraceTest, EnableChannelsByNameAll)
{
    EXPECT_TRUE(obs::enableChannelsByName("all"));
    EXPECT_EQ(obs::channelMask(), obs::allChannels());
}

TEST_F(ObsTraceTest, UnknownChannelNameRejectedMaskUntouched)
{
    obs::enableChannel(TraceChannel::Port);
    obs::ChannelMask before = obs::channelMask();
    EXPECT_FALSE(obs::enableChannelsByName("DRAMCtrl,NoSuchChannel"));
    EXPECT_EQ(obs::channelMask(), before);
}

TEST_F(ObsTraceTest, ChannelNamesRoundTrip)
{
    for (unsigned i = 0;
         i < static_cast<unsigned>(TraceChannel::NumChannels); ++i) {
        auto ch = static_cast<TraceChannel>(i);
        TraceChannel parsed;
        ASSERT_TRUE(obs::channelFromString(obs::toString(ch), parsed));
        EXPECT_EQ(parsed, ch);
    }
}

TEST_F(ObsTraceTest, DisabledChannelEmitsNothing)
{
    CaptureSink sink;
    obs::addSink(&sink);
    TRACE(DRAMCtrl, "should not appear %d", 1);
    EXPECT_TRUE(sink.lines.empty());
}

TEST_F(ObsTraceTest, EnabledChannelRoutesToSink)
{
    CaptureSink sink;
    obs::addSink(&sink);
    obs::enableChannel(TraceChannel::XBar);

    TRACE(XBar, "routing %u to %u", 2u, 5u);
    TRACE(DRAMCtrl, "still disabled");

    ASSERT_EQ(sink.lines.size(), 1u);
    EXPECT_EQ(sink.lines[0].ch, TraceChannel::XBar);
    EXPECT_EQ(sink.lines[0].msg, "routing 2 to 5");
}

TEST_F(ObsTraceTest, MultipleSinksAllReceive)
{
    CaptureSink a, b;
    obs::addSink(&a);
    obs::addSink(&b);
    EXPECT_EQ(obs::numSinks(), 2u);
    obs::enableChannel(TraceChannel::Power);

    TRACE(Power, "fan out");
    EXPECT_EQ(a.lines.size(), 1u);
    EXPECT_EQ(b.lines.size(), 1u);

    obs::removeSink(&a);
    TRACE(Power, "only b");
    EXPECT_EQ(a.lines.size(), 1u);
    EXPECT_EQ(b.lines.size(), 2u);
}

TEST_F(ObsTraceTest, NoSimulatorTickIsSentinel)
{
    CaptureSink sink;
    obs::addSink(&sink);
    obs::enableChannel(TraceChannel::Port);
    TRACE(Port, "outside any simulation");
    ASSERT_EQ(sink.lines.size(), 1u);
    EXPECT_EQ(sink.lines[0].tick, kMaxTick);
}

TEST_F(ObsTraceTest, TraceStampsActiveSimulatorTick)
{
    CaptureSink sink;
    obs::addSink(&sink);
    obs::enableChannel(TraceChannel::EventQ);

    Simulator sim;
    EventFunctionWrapper ev([&] { TRACE(EventQ, "from event"); },
                            "traceEvent");
    sim.eventq().schedule(ev, 12345);
    sim.run(fromUs(1));

    // One line from the kernel's own EventQ trace point plus one from
    // the event body; both stamped with the event's tick.
    ASSERT_GE(sink.lines.size(), 1u);
    bool found = false;
    for (const auto &l : sink.lines) {
        if (l.msg == "from event") {
            EXPECT_EQ(l.tick, 12345u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(ObsTraceTest, InnermostSimulatorWinsTickStamp)
{
    CaptureSink sink;
    obs::addSink(&sink);
    obs::enableChannel(TraceChannel::Sampler);

    Simulator outer;
    EventFunctionWrapper oev([] {}, "outerEvent");
    outer.eventq().schedule(oev, 999);
    outer.run(fromUs(1));
    {
        Simulator inner;
        TRACE(Sampler, "inner");
        ASSERT_EQ(sink.lines.size(), 1u);
        EXPECT_EQ(sink.lines[0].tick, 0u); // inner sim at tick 0
    }
    TRACE(Sampler, "outer again");
    ASSERT_EQ(sink.lines.size(), 2u);
    EXPECT_EQ(sink.lines[1].tick, fromUs(1));
}

TEST_F(ObsTraceTest, TextSinkFormat)
{
    std::ostringstream os;
    obs::TextSink sink(os);
    sink.write(42, TraceChannel::Refresh, "pulling the banks down");
    sink.write(kMaxTick, TraceChannel::Refresh, "outside sim");
    EXPECT_EQ(os.str(), "42: Refresh: pulling the banks down\n"
                        "-: Refresh: outside sim\n");
}

TEST_F(ObsTraceTest, JsonlSinkFormatAndEscaping)
{
    std::ostringstream os;
    obs::JsonlSink sink(os);
    sink.write(7, TraceChannel::XBar, "quote \" slash \\ nl \n end");
    sink.write(kMaxTick, TraceChannel::Port, "no sim");
    std::string out = os.str();
    EXPECT_NE(out.find("{\"tick\": 7, \"channel\": \"XBar\", "
                       "\"msg\": \"quote \\\" slash \\\\ nl \\n "
                       "end\"}\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("{\"tick\": null, \"channel\": \"Port\""),
              std::string::npos)
        << out;

    // Every control byte is escaped, and the line parses back to the
    // message it was written from.
    const std::string msg = "cr\r bell\x07 unit\x1f \"q\" \\ tab\t";
    std::ostringstream hostile;
    obs::JsonlSink(hostile).write(9, TraceChannel::DRAMCtrl, msg);
    std::string line = hostile.str();
    ASSERT_FALSE(line.empty());
    ASSERT_EQ(line.back(), '\n');
    line.pop_back();
    for (char c : line)
        ASSERT_GE(static_cast<unsigned char>(c), 0x20) << line;
    validate::Json doc;
    std::string err;
    ASSERT_TRUE(validate::parseJson(line, doc, &err)) << err << "\n"
                                                      << line;
    EXPECT_EQ(doc["tick"].asUInt(), 9u);
    EXPECT_EQ(doc["channel"].asString(), "DRAMCtrl");
    EXPECT_EQ(doc["msg"].asString(), msg);
}

TEST_F(ObsTraceTest, WarnIsTickPrefixedWhileSimulatorActive)
{
    Simulator sim;
    EventFunctionWrapper ev([] { warn("inside the run"); }, "warnEvent");
    sim.eventq().schedule(ev, 777);

    testing::internal::CaptureStderr();
    sim.run(fromUs(1));
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("777: warn: inside the run"), std::string::npos)
        << err;
}

TEST_F(ObsTraceTest, WarnHasNoPrefixWithoutSimulator)
{
    testing::internal::CaptureStderr();
    warn("no simulation running");
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("warn: no simulation running"),
              std::string::npos)
        << err;
    EXPECT_EQ(err.find(": warn:"), std::string::npos) << err;
}

TEST_F(ObsTraceTest, InformIsTickPrefixedWhileSimulatorActive)
{
    Simulator sim;
    EventFunctionWrapper ev([] { inform("progress note"); },
                            "informEvent");
    sim.eventq().schedule(ev, 4242);

    testing::internal::CaptureStdout();
    sim.run(fromUs(1));
    std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("4242: info: progress note"), std::string::npos)
        << out;
}

} // namespace
} // namespace dramctrl
