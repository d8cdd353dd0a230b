/**
 * @file
 * Declarative controller configuration files.
 *
 * A config file is a JSON document describing one DRAMCtrlConfig — the
 * declarative counterpart of picking a preset and layering CLI
 * overrides. The schema mirrors the config structure:
 *
 *   {
 *     "format": "dramctrl-config-v1",      // optional, checked if set
 *     "preset": "ddr4_2400",               // optional base preset
 *     "organisation": { "banksPerRank": 16, ... },
 *     "timing":       { "tCK": 0.833, ... },   // values in ns
 *     "controller":   { "schedPolicy": "frfcfs", ... },
 *     "plugins":      [ { "kind": "ecc", ... }, ... ]
 *   }
 *
 * When "preset" is given the named preset supplies every default and
 * the sections override it field by field; without it the defaults are
 * the DRAMCtrlConfig member initialisers. Timing and latency values
 * are nanoseconds (doubles), exactly the units the preset factories
 * use, so a file transcribing a preset parses to a byte-identical
 * configuration.
 *
 * The keys, sections and value kinds come from the config field
 * table in dram/dram_config.hh; this file walks the table and names
 * no field itself.
 *
 * Parsing is strict: unknown keys, type mismatches, numbers a field
 * cannot hold (negative, fractional or out-of-range integers,
 * negative or tick-overflowing durations) and malformed JSON are hard
 * errors with messages naming the section and key — misspelling
 * "tRCD" must not silently leave the default in place.
 *
 * dumpConfig() emits every knob; its output re-parses (with no preset
 * installed) to a configuration with an identical, exact
 * configFingerprint(), and dumping that again gives the same text.
 * Repro files (validate/repro.hh) embed the same document.
 */

#ifndef DRAMCTRL_HARNESS_CONFIG_FILE_H
#define DRAMCTRL_HARNESS_CONFIG_FILE_H

#include <string>

#include "dram/dram_config.hh"
#include "validate/json_io.hh"

namespace dramctrl {
namespace harness {

/**
 * Parse a config document from JSON text into @p cfg.
 *
 * @param base_preset when non-null, receives the "preset" key's value
 *                    ("" if the file names none).
 * @return false (with *err set when given) on malformed input; @p cfg
 *         is unspecified on failure.
 */
bool parseConfigText(const std::string &text, DRAMCtrlConfig &cfg,
                     std::string *base_preset = nullptr,
                     std::string *err = nullptr);

/** parseConfigText() for an already parsed JSON document @p j. */
bool configFromJson(const validate::Json &j, DRAMCtrlConfig &cfg,
                    std::string *base_preset = nullptr,
                    std::string *err = nullptr);

/**
 * Load a config file, fatal() on any error (missing file, malformed
 * JSON, unknown keys, inconsistent values — cfg.check() runs too).
 */
DRAMCtrlConfig loadConfigFile(const std::string &path,
                              std::string *base_preset = nullptr);

/**
 * Emit every knob of @p cfg as a config document. @p preset_name, when
 * non-empty, is recorded as the "preset" key (informational: every
 * field is still emitted explicitly, so re-parsing does not depend on
 * the preset being registered... but it must name a real preset if it
 * is to be re-parsed, since unknown presets are errors).
 */
validate::Json configToJson(const DRAMCtrlConfig &cfg,
                            const std::string &preset_name = "");

/** configToJson() pretty-printed with a trailing newline. */
std::string dumpConfig(const DRAMCtrlConfig &cfg,
                       const std::string &preset_name = "");

/** Write dumpConfig() to @p path; false on I/O failure. */
bool writeConfigFile(const std::string &path, const DRAMCtrlConfig &cfg,
                     const std::string &preset_name = "");

} // namespace harness
} // namespace dramctrl

#endif // DRAMCTRL_HARNESS_CONFIG_FILE_H
