/**
 * @file
 * Unit tests for the declarative option table: strict numbers per
 * target kind, missing values and unknown flags, thread counts,
 * optional operands, enums, and the generated usage text.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dram/dram_config.hh"
#include "exec/thread_pool.hh"
#include "harness/cli_options.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace {

class ThrowOnError : public ::testing::Test
{
  protected:
    void SetUp() override { setThrowOnError(true); }
    void TearDown() override { setThrowOnError(false); }
};

using CliOptions = ThrowOnError;

/** Every target kind the table supports, with recognisable defaults. */
struct Targets
{
    unsigned u = 7;
    std::uint64_t big = 7;
    double d = 7.0;
    std::string text;
    bool flag = false;
    unsigned jobs = 7;
    std::vector<unsigned> pcts;
    std::vector<double> itts;
    std::optional<PagePolicy> page;
    std::vector<AddrMapping> mappings;
    bool textGiven = false;
    std::string injected;
};

std::vector<cli::Option>
table(Targets &t)
{
    return {
        cli::value("--u", "N", "an unsigned", t.u),
        cli::value("--big", "N", "a u64", t.big),
        cli::value("--d", "F", "a double", t.d),
        cli::value("--text", "S", "a string\nover two lines", t.text,
                   &t.textGiven),
        cli::section("more:"),
        cli::toggle("--flag", "a switch", t.flag),
        cli::threads("--jobs", "N", "a thread count", t.jobs),
        cli::value("--pcts", "LIST", "unsigned list", t.pcts),
        cli::value("--itts", "LIST", "double list", t.itts),
        cli::value("--page", "POLICY", "an optional enum", t.page),
        cli::value("--mapping", "LIST", "an enum list", t.mappings),
        cli::callback(
            "--inject-bug", "[M]", "optional operand",
            [&t](const char *m) { t.injected = m != nullptr ? m : "default"; },
            cli::Option::Arg::Optional),
    };
}

/** Parse @p args (argv[0] is supplied) against a fresh table. */
bool
parse(Targets &t, std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return cli::parseOptions(static_cast<int>(argv.size()), argv.data(),
                             table(t));
}

/** The fatal() message a parse ends in ("" if it succeeds). */
std::string
parseError(std::vector<std::string> args)
{
    Targets t;
    try {
        parse(t, std::move(args));
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST_F(CliOptions, ParsesEveryKind)
{
    Targets t;
    ASSERT_TRUE(parse(t, {"--u", "4294967295", "--big",
                          "18446744073709551615", "--d", "1e-4", "--text",
                          "x", "--flag", "--jobs", "3", "--pcts", "50,,100",
                          "--itts", "6,8.5", "--page", "closed",
                          "--mapping", "RoCoRaBaCh,RoRaBaChCo"}));
    EXPECT_EQ(t.u, 4294967295u);
    EXPECT_EQ(t.big, 18446744073709551615ull);
    EXPECT_EQ(t.d, 1e-4);
    EXPECT_EQ(t.text, "x");
    EXPECT_TRUE(t.textGiven);
    EXPECT_TRUE(t.flag);
    EXPECT_EQ(t.jobs, 3u);
    EXPECT_EQ(t.pcts, (std::vector<unsigned>{50, 100}));
    EXPECT_EQ(t.itts, (std::vector<double>{6.0, 8.5}));
    EXPECT_EQ(t.page, PagePolicy::Closed);
    EXPECT_EQ(t.mappings, (std::vector<AddrMapping>{
                              AddrMapping::RoCoRaBaCh,
                              AddrMapping::RoRaBaChCo}));
    EXPECT_TRUE(t.injected.empty());
}

TEST_F(CliOptions, UntouchedTargetsKeepTheirDefaults)
{
    Targets t;
    ASSERT_TRUE(parse(t, {"--u", "1", "--u", "2"}));
    EXPECT_EQ(t.u, 2u); // last wins
    EXPECT_EQ(t.big, 7u);
    EXPECT_FALSE(t.page.has_value());
    EXPECT_FALSE(t.textGiven);
}

TEST_F(CliOptions, RejectsMalformedIntegers)
{
    for (const char *flag : {"--u", "--big", "--jobs"})
        for (const char *bad : {"abc", "8x", "-5", "1.5", "", "+5", " 5"})
            EXPECT_EQ(parseError({flag, bad}),
                      std::string("fatal: ") + flag + ": '" + bad +
                          "' is not an unsigned integer")
                << flag << " " << bad;
}

TEST_F(CliOptions, RejectsIntegersWiderThanTheTarget)
{
    EXPECT_EQ(parseError({"--u", "4294967297"}),
              "fatal: --u: '4294967297' is out of range (at most "
              "4294967295)");
    EXPECT_EQ(parseError({"--jobs", "4294967297"}),
              "fatal: --jobs: '4294967297' is out of range (at most "
              "4294967295)");
    EXPECT_EQ(parseError({"--big", "18446744073709551616"}),
              "fatal: --big: '18446744073709551616' is out of range (at "
              "most 18446744073709551615)");
}

TEST_F(CliOptions, RejectsMalformedDoubles)
{
    for (const char *bad : {"6ns", "", "abc", "1e999", "nan", "inf"})
        EXPECT_EQ(parseError({"--d", bad}),
                  std::string("fatal: --d: '") + bad + "' is not a number")
            << bad;
    Targets t;
    ASSERT_TRUE(parse(t, {"--d", "-40.5"}));
    EXPECT_EQ(t.d, -40.5);
}

TEST_F(CliOptions, RejectsAListWithOneMalformedItem)
{
    EXPECT_EQ(parseError({"--pcts", "70,1.5"}),
              "fatal: --pcts: '1.5' is not an unsigned integer");
    EXPECT_EQ(parseError({"--itts", "6,6ns"}),
              "fatal: --itts: '6ns' is not a number");
    EXPECT_EQ(parseError({"--mapping", "RoCoRaBaCh,nope"}),
              "fatal: --mapping: unknown value 'nope'");
}

TEST_F(CliOptions, RejectsAnUnknownEnumValue)
{
    EXPECT_EQ(parseError({"--page", "ajar"}),
              "fatal: --page: unknown value 'ajar'");
}

TEST_F(CliOptions, MissingValueAndUnknownFlag)
{
    EXPECT_EQ(parseError({"--u"}), "fatal: missing value for --u");
    EXPECT_EQ(parseError({"--flag", "--text"}),
              "fatal: missing value for --text");
    EXPECT_EQ(parseError({"--nope"}),
              "fatal: unknown option '--nope' (try --help)");
    // A section heading is not a flag.
    EXPECT_EQ(parseError({""}), "fatal: unknown option '' (try --help)");
}

TEST_F(CliOptions, ZeroThreadsMeansOnePerCore)
{
    Targets t;
    ASSERT_TRUE(parse(t, {"--jobs", "0"}));
    EXPECT_EQ(t.jobs, exec::ThreadPool::hardwareThreads());
    EXPECT_GT(t.jobs, 0u);
}

TEST_F(CliOptions, OptionalOperand)
{
    Targets bare;
    ASSERT_TRUE(parse(bare, {"--inject-bug"}));
    EXPECT_EQ(bare.injected, "default");

    Targets before_flag;
    ASSERT_TRUE(parse(before_flag, {"--inject-bug", "--flag"}));
    EXPECT_EQ(before_flag.injected, "default");
    EXPECT_TRUE(before_flag.flag);

    Targets with;
    ASSERT_TRUE(parse(with, {"--inject-bug", "prac", "--u", "3"}));
    EXPECT_EQ(with.injected, "prac");
    EXPECT_EQ(with.u, 3u);
}

TEST_F(CliOptions, HelpStopsParsing)
{
    Targets t;
    testing::internal::CaptureStdout();
    EXPECT_FALSE(parse(t, {"--u", "3", "--help", "--u", "abc"}));
    std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(out.rfind("usage: prog [options]\n", 0), 0u);
    EXPECT_EQ(t.u, 3u);
}

TEST_F(CliOptions, UsagePrintsEveryFlagExactlyOnce)
{
    Targets t;
    std::vector<cli::Option> opts = table(t);
    std::ostringstream os;
    cli::printUsage(os, "prog", "[options]", opts);
    const std::string usage = os.str();
    EXPECT_EQ(usage.rfind("usage: prog [options]\n", 0), 0u);
    for (const cli::Option &o : opts) {
        if (o.flag.empty()) {
            EXPECT_NE(usage.find("\n" + o.help + "\n"), std::string::npos);
            continue;
        }
        // The flag starts its row, followed by its metavar.
        std::string head = "\n  " + o.flag + " ";
        std::size_t at = usage.find(head);
        ASSERT_NE(at, std::string::npos) << o.flag;
        EXPECT_EQ(usage.find(head, at + 1), std::string::npos) << o.flag;
        if (!o.metavar.empty()) {
            EXPECT_EQ(usage.compare(at + head.size(), o.metavar.size(),
                                    o.metavar),
                      0)
                << o.flag;
        }
    }
    // Continuation lines indent to the help column.
    EXPECT_NE(usage.find("a string\n                     over two lines\n"),
              std::string::npos);
}

} // namespace
} // namespace dramctrl
