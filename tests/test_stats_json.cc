/**
 * @file
 * Tests for the JSON statistics export: structural validity, value
 * fidelity for each stat type, and the full-tree dump from a live
 * simulation.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "dram/dram_ctrl.hh"
#include "sim/simulator.hh"
#include "stats/histogram.hh"
#include "stats/stats.hh"
#include "test_util.hh"
#include "validate/json_io.hh"

namespace dramctrl {
namespace {

using namespace stats;

/** Minimal structural JSON validation: balanced braces/brackets and
 *  balanced quotes outside of strings. */
bool
structurallyValidJson(const std::string &s)
{
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : s) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"': in_string = true; break;
          case '{':
          case '[': ++depth; break;
          case '}':
          case ']':
            if (--depth < 0)
                return false;
            break;
          default: break;
        }
    }
    return depth == 0 && !in_string;
}

TEST(StatsJsonTest, ScalarAndFormula)
{
    Group g("g");
    Scalar s(&g, "count", "");
    s += 42;
    Formula f(&g, "double_count", "", [&] { return 2 * s.value(); });

    std::ostringstream os;
    g.dumpJson(os);
    std::string out = os.str();
    EXPECT_TRUE(structurallyValidJson(out)) << out;
    EXPECT_NE(out.find("\"count\": 42"), std::string::npos) << out;
    EXPECT_NE(out.find("\"double_count\": 84"), std::string::npos)
        << out;
}

TEST(StatsJsonTest, AverageAndVector)
{
    Group g("g");
    Average a(&g, "avg", "");
    a.sample(10);
    a.sample(20);
    Vector v(&g, "vec", "", 3);
    v[1] = 7;

    std::ostringstream os;
    g.dumpJson(os);
    std::string out = os.str();
    EXPECT_TRUE(structurallyValidJson(out)) << out;
    EXPECT_NE(out.find("\"avg\": {\"mean\": 15, \"samples\": 2}"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("\"vec\": [0, 7, 0]"), std::string::npos)
        << out;
}

TEST(StatsJsonTest, HistogramFields)
{
    Group g("g");
    Histogram h(&g, "hist", "", 8);
    h.sample(3);
    h.sample(5);

    std::ostringstream os;
    g.dumpJson(os);
    std::string out = os.str();
    EXPECT_TRUE(structurallyValidJson(out)) << out;
    EXPECT_NE(out.find("\"samples\": 2"), std::string::npos) << out;
    EXPECT_NE(out.find("\"buckets\": ["), std::string::npos) << out;
}

TEST(StatsJsonTest, NestedGroups)
{
    Group root("system");
    Group child("mem", &root);
    Scalar s(&child, "reads", "");
    s += 1;

    std::ostringstream os;
    root.dumpJson(os);
    std::string out = os.str();
    EXPECT_TRUE(structurallyValidJson(out)) << out;
    EXPECT_NE(out.find("\"mem\": {\"reads\": 1}"), std::string::npos)
        << out;
}

TEST(StatsJsonTest, HostileNamesRoundTripThroughTheParser)
{
    // Group and stat names come from configs and instance names; a
    // quote, a backslash or a control character in one must still
    // give a document a strict parser accepts, with the names intact.
    const std::string group_name = "bad\x01name \"q\" \\ \n";
    const std::string stat_name = "tab\tand\x1f";
    Group root("system");
    Group child(group_name, &root);
    Scalar s(&child, stat_name, "");
    s += 3;

    std::ostringstream os;
    root.dumpJson(os);
    // JSON forbids raw control characters in strings (Python's
    // json.loads rejects them); the escaper must spell them out.
    for (char c : os.str())
        ASSERT_GE(static_cast<unsigned char>(c), 0x20) << os.str();
    validate::Json doc;
    std::string err;
    ASSERT_TRUE(validate::parseJson(os.str(), doc, &err))
        << err << "\n" << os.str();
    ASSERT_TRUE(doc[group_name].isObject()) << os.str();
    EXPECT_EQ(doc[group_name][stat_name].asUInt(), 3u) << os.str();
}

TEST(StatsJsonTest, FullSimulationTreeIsValid)
{
    Simulator sim;
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    DRAMCtrl ctrl(sim, "ctrl", cfg,
                  AddrRange(0, cfg.org.channelCapacity));
    testutil::TestRequestor req(sim, "req");
    req.port().bind(ctrl.port());
    for (unsigned i = 0; i < 20; ++i)
        req.inject(0, MemCmd::ReadReq, static_cast<Addr>(i) * 64);
    sim.run(fromUs(10));

    std::ostringstream os;
    sim.dumpStatsJson(os);
    std::string out = os.str();
    EXPECT_TRUE(structurallyValidJson(out));
    EXPECT_NE(out.find("\"ctrl\""), std::string::npos);
    EXPECT_NE(out.find("\"readBursts\": 20"), std::string::npos)
        << out.substr(0, 500);
}

} // namespace
} // namespace dramctrl
