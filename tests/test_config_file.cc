/**
 * @file
 * Declarative config loader tests (`ctest -R config_file`).
 *
 * The JSON schema round-trips exactly: dumping any configuration and
 * reparsing the text must reproduce a fingerprint-identical
 * configuration (timings travel as nanosecond doubles printed with
 * enough digits to survive the tick conversion). The suite fuzzes the
 * round-trip across fuzzer-drawn configurations over every registered
 * preset, locks the committed examples/ddr4.json to the ddr4_2400
 * preset byte-for-byte, and checks that malformed inputs — unknown
 * keys, type mismatches, numbers a field cannot hold, truncated
 * files, bogus enum values — fail with errors that name the offending
 * section and key. The fingerprint is exact: moving any one field by
 * its smallest step changes it.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "dram/dram_presets.hh"
#include "harness/config_file.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "test_util.hh"
#include "validate/config_fuzzer.hh"

namespace dramctrl {
namespace {

using harness::dumpConfig;
using harness::loadConfigFile;
using harness::parseConfigText;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---------------------------------------------------------------
// Round-trip exactness.
// ---------------------------------------------------------------

TEST(ConfigFile, EveryPresetRoundTripsFingerprintIdentical)
{
    for (const std::string &name : presets::names()) {
        DRAMCtrlConfig cfg = presets::byName(name);
        std::string text = dumpConfig(cfg);

        DRAMCtrlConfig back;
        std::string err;
        ASSERT_TRUE(parseConfigText(text, back, nullptr, &err))
            << name << ": " << err;
        EXPECT_EQ(configFingerprint(cfg), configFingerprint(back))
            << name << ": dump/reparse drifted:\n"
            << cfg.describe() << "\nvs\n"
            << back.describe();
    }
}

TEST(ConfigFile, FuzzedConfigsRoundTripFingerprintIdentical)
{
    // Fuzzer-drawn configurations cover the knob space (queue depths,
    // policies, latencies, plugins, randomised organisations) far
    // beyond the preset factories.
    Random rng(2024);
    validate::FuzzerOptions fopts;
    fopts.standards = presets::names();
    fopts.withPlugins = true;
    for (int i = 0; i < 40; ++i) {
        validate::FuzzCase fc = validate::sampleCase(rng, fopts);
        std::string text = dumpConfig(fc.cfg, fc.presetName);

        DRAMCtrlConfig back;
        std::string base;
        std::string err;
        ASSERT_TRUE(parseConfigText(text, back, &base, &err))
            << "case " << i << " (" << fc.presetName
            << "): " << err;
        EXPECT_EQ(base, fc.presetName);
        EXPECT_EQ(configFingerprint(fc.cfg), configFingerprint(back))
            << "case " << i << " (" << fc.presetName
            << ") drifted:\n"
            << fc.cfg.describe() << "\nvs\n"
            << back.describe();

        // Second generation: dumping the reparsed config must emit
        // the identical text (a fixed point, not just a close orbit).
        EXPECT_EQ(text, dumpConfig(back, fc.presetName));
    }
}

TEST(ConfigFile, PresetBaseWithOverridesAppliesOnTop)
{
    DRAMCtrlConfig want = presets::byName("ddr4_2400");
    want.readBufferSize = 48;
    want.timing.tRCD = fromNs(16.0);

    const std::string text = R"({
        "preset": "ddr4_2400",
        "timing": {"tRCD": 16.0},
        "controller": {"readBufferSize": 48}
    })";
    DRAMCtrlConfig got;
    std::string base;
    std::string err;
    ASSERT_TRUE(parseConfigText(text, got, &base, &err)) << err;
    EXPECT_EQ(base, "ddr4_2400");
    EXPECT_EQ(configFingerprint(want), configFingerprint(got));
}

// ---------------------------------------------------------------
// The committed example must equal the preset it transcribes.
// ---------------------------------------------------------------

TEST(ConfigFile, ExampleDdr4MatchesPresetExactly)
{
    const std::string path = std::string(EXAMPLES_DIR) + "/ddr4.json";
    std::string base;
    DRAMCtrlConfig fromFile = loadConfigFile(path, &base);
    EXPECT_EQ(base, "ddr4_2400");

    DRAMCtrlConfig fromPreset = presets::byName("ddr4_2400");
    EXPECT_EQ(configFingerprint(fromFile),
              configFingerprint(fromPreset))
        << "examples/ddr4.json drifted from the ddr4_2400 preset:\n"
        << fromFile.describe() << "\nvs\n"
        << fromPreset.describe();

    // And the example is the dump's fixed point, so --dump-config of
    // a --config run reproduces the file byte-for-byte.
    EXPECT_EQ(readFile(path), dumpConfig(fromFile, base));
}

// ---------------------------------------------------------------
// Malformed inputs fail with errors naming section and key.
// ---------------------------------------------------------------

struct MalformedCase
{
    std::string name;
    std::string text;
    /** Substring the error message must contain. */
    std::string expect;
};

class ConfigFileMalformed
    : public ::testing::TestWithParam<MalformedCase>
{
};

TEST_P(ConfigFileMalformed, IsRejectedWithClearError)
{
    const MalformedCase &c = GetParam();
    DRAMCtrlConfig cfg;
    std::string err;
    EXPECT_FALSE(parseConfigText(c.text, cfg, nullptr, &err))
        << c.name << ": accepted malformed input";
    EXPECT_NE(err.find(c.expect), std::string::npos)
        << c.name << ": error '" << err
        << "' does not mention '" << c.expect << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ConfigFileMalformed,
    ::testing::Values(
        MalformedCase{"unknown_top_key",
                      R"({"organization": {}})", "organization"},
        MalformedCase{"unknown_timing_key",
                      R"({"timing": {"tRCDx": 14.0}})", "tRCDx"},
        MalformedCase{"unknown_org_key",
                      R"({"organisation": {"bankGroups": 4}})",
                      "bankGroups"},
        MalformedCase{"timing_type_mismatch",
                      R"({"timing": {"tRCD": "fast"}})", "tRCD"},
        MalformedCase{"org_type_mismatch",
                      R"({"organisation": {"banksPerRank": true}})",
                      "banksPerRank"},
        MalformedCase{"bool_type_mismatch",
                      R"({"controller": {"enablePowerDown": 1}})",
                      "enablePowerDown"},
        MalformedCase{"bad_enum",
                      R"({"controller": {"pagePolicy": "ajar"}})",
                      "ajar"},
        MalformedCase{"unknown_preset",
                      R"({"preset": "ddr9_9999"})", "ddr9_9999"},
        MalformedCase{"bad_format",
                      R"({"format": "dramctrl-config-v999"})",
                      "dramctrl-config-v999"},
        MalformedCase{"truncated", R"({"timing": {"tRCD": 14)", ""},
        MalformedCase{"not_an_object", R"([1, 2, 3])", "object"},
        MalformedCase{"plugin_without_kind",
                      R"({"plugins": [{"pracThreshold": 4}]})",
                      "kind"},
        MalformedCase{"fractional_uint",
                      R"({"controller": {"readBufferSize": 1.5}})",
                      "controller: 'readBufferSize'"},
        MalformedCase{"uint_beyond_32_bits",
                      R"({"controller": {"writeBufferSize": 4294967360}})",
                      "controller: 'writeBufferSize'"},
        MalformedCase{"negative_uint",
                      R"({"organisation": {"banksPerRank": -8}})",
                      "organisation: 'banksPerRank'"},
        MalformedCase{"u64_beyond_64_bits",
                      R"({"organisation":
                          {"channelCapacity": 18446744073709551616}})",
                      "organisation: 'channelCapacity'"},
        MalformedCase{"negative_duration",
                      R"({"timing": {"tRCD": -1.0}})",
                      "timing: 'tRCD'"},
        MalformedCase{"tick_overflowing_duration",
                      R"({"timing": {"tREFI": 2e16}})",
                      "timing: 'tREFI'"},
        MalformedCase{"fractional_priority",
                      R"({"controller": {"requestorPriorities": [1, 2.5]}})",
                      "controller: 'requestorPriorities'"},
        MalformedCase{"negative_priority",
                      R"({"controller": {"requestorPriorities": [-1]}})",
                      "controller: 'requestorPriorities'"},
        MalformedCase{"priority_beyond_32_bits",
                      R"({"controller":
                          {"requestorPriorities": [4294967296]}})",
                      "controller: 'requestorPriorities'"},
        MalformedCase{"fractional_plugin_uint",
                      R"({"plugins": [{"kind": "ecc",
                                       "eccDataBits": 64.5}]})",
                      "plugins: 'eccDataBits'"}),
    [](const ::testing::TestParamInfo<MalformedCase> &info) {
        return info.param.name;
    });

// ---------------------------------------------------------------
// The fingerprint is exact.
// ---------------------------------------------------------------

TEST(ConfigFingerprint, EveryOneFieldStepChangesIt)
{
    DRAMCtrlConfig base = presets::byName("ddr3_1333");
    base.plugins.emplace_back();
    base.plugins.back().kind = "ecc";
    const std::uint64_t want = configFingerprint(base);

    const std::vector<testutil::FieldStep> steps =
        testutil::everyFieldStep();
    for (const testutil::FieldStep &step : steps) {
        DRAMCtrlConfig cfg = base;
        step.apply(cfg);
        EXPECT_NE(configFingerprint(cfg), want)
            << step.name << " moved by one step kept the fingerprint";
    }

    // The independent list covers as many fields as the table has
    // rows, plus the chain length.
    std::size_t rows = 0;
    auto count = [&rows](const ConfigField &, const auto &) { ++rows; };
    forEachField(base, count);
    forEachPluginField(base.plugins[0], count);
    EXPECT_EQ(steps.size(), rows + 1);
}

TEST(ConfigFile, MissingFileIsFatal)
{
    setThrowOnError(true);
    EXPECT_THROW(loadConfigFile("/nonexistent/nope.json"),
                 std::runtime_error);
    setThrowOnError(false);
}

TEST(ConfigFile, SemanticallyInvalidConfigFailsCheck)
{
    // Parses fine, but tCCD_S above tBURST cannot be honoured by the
    // event model's bus serialisation — DRAMTiming::check() rejects
    // it when the loader validates.
    const std::string text = R"({
        "preset": "ddr4_2400",
        "timing": {"tCCD_S": 50.0}
    })";
    DRAMCtrlConfig cfg;
    std::string err;
    ASSERT_TRUE(parseConfigText(text, cfg, nullptr, &err)) << err;
    setThrowOnError(true);
    EXPECT_THROW(cfg.check(), std::runtime_error);
    setThrowOnError(false);
}

} // namespace
} // namespace dramctrl
