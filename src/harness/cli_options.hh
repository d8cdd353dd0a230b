/**
 * @file
 * Declarative command-line options: one table per tool drives both
 * its argument parser and its --help text.
 *
 * Each table entry names a flag once, with its metavar, help text and
 * target. The target's type picks the parser: a bool switch, a string,
 * a strict unsigned / u64 / double number, a thread count (0 = one per
 * core), an enum read through the dramctrl::fromString() overloads, a
 * std::optional of any of those (set only when the flag is given), a
 * comma-separated std::vector of any of those, or a callback for the
 * few flags whose value does more than set a field.
 *
 * Numbers are parsed with std::from_chars over the whole token and
 * range-checked against the target's width: "8x", "-5", "1.5" for an
 * integer, "4294967297" for an unsigned or "6ns" for a double all end
 * in fatal() naming the flag and the bad value, never in a silently
 * truncated or wrapped setting.
 *
 *   std::vector<cli::Option> table = {
 *       cli::value("--requests", "N", "requests to simulate",
 *                  opt.requests),
 *       cli::toggle("--json", "dump the stats tree", opt.json),
 *   };
 *   if (!cli::parseOptions(argc, argv, table))
 *       return 0; // --help was printed
 */

#ifndef DRAMCTRL_HARNESS_CLI_OPTIONS_H
#define DRAMCTRL_HARNESS_CLI_OPTIONS_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"

namespace dramctrl {
namespace cli {

/** One flag (or, with an empty flag, a section heading) of a tool. */
struct Option
{
    /** Whether the flag takes the next argument as its value. */
    enum class Arg { None, Required, Optional };

    std::string flag;    ///< "--requests"; empty = section heading
    std::string metavar; ///< "N"; shown after the flag in --help
    std::string help;    ///< '\n' starts an indented continuation line
    Arg arg = Arg::Required;
    /** Applies the value (nullptr for a switch or an omitted one). */
    std::function<void(const char *value)> set;
    /** When non-null, set to true whenever the flag is given. */
    bool *given = nullptr;
};

/**
 * Strict value parsers, shared by the table and by tools that parse
 * positional arguments themselves. Each one fatal()s naming @p flag
 * and @p text when @p text is not a whole, in-range value.
 */
void parseValue(const std::string &flag, const std::string &text,
                unsigned &out);
void parseValue(const std::string &flag, const std::string &text,
                std::uint64_t &out);
void parseValue(const std::string &flag, const std::string &text,
                double &out);
void parseValue(const std::string &flag, const std::string &text,
                std::string &out);

/** An enum, by the name its dramctrl::fromString() overload accepts. */
template <typename E>
    requires std::is_enum_v<E>
void
parseValue(const std::string &flag, const std::string &text, E &out)
{
    if (!fromString(text, out))
        fatal("%s: unknown value '%s'", flag.c_str(), text.c_str());
}

template <typename T>
void
parseValue(const std::string &flag, const std::string &text,
           std::optional<T> &out)
{
    T v{};
    parseValue(flag, text, v);
    out = v;
}

/** A comma-separated list; empty items are skipped. */
template <typename T>
void
parseValue(const std::string &flag, const std::string &text,
           std::vector<T> &out)
{
    out.clear();
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        if (comma > pos) {
            T v{};
            parseValue(flag, text.substr(pos, comma - pos), v);
            out.push_back(v);
        }
        pos = comma + 1;
    }
}

/** A section heading printed as-is between the flags. */
Option section(std::string title);

/** A switch: takes no value, sets @p target to true. */
Option toggle(std::string flag, std::string help, bool &target);

/** A flag whose value parses into @p target (see parseValue()). */
template <typename T>
Option
value(std::string flag, std::string metavar, std::string help,
      T &target, bool *given = nullptr)
{
    std::string name = flag;
    return {std::move(flag), std::move(metavar), std::move(help),
            Option::Arg::Required,
            [name, &target](const char *v) {
                parseValue(name, v, target);
            },
            given};
}

/** A thread count: an unsigned where 0 means one per core. */
Option threads(std::string flag, std::string metavar, std::string help,
               unsigned &target);

/**
 * A flag whose value is handed to @p fn. With Option::Arg::Optional
 * the next argument is its value unless it starts with '-', and @p fn
 * gets nullptr when the value is omitted.
 */
Option callback(std::string flag, std::string metavar,
                std::string help, std::function<void(const char *)> fn,
                Option::Arg arg = Option::Arg::Required);

/**
 * Apply argv[1..] to @p table in order (a repeated flag: last wins).
 * A missing value or an unknown flag is fatal(); --help or -h prints
 * the usage to stdout and stops.
 *
 * @param synopsis what follows the program name on the usage line.
 * @return false when --help was printed (the tool should exit 0).
 */
bool parseOptions(int argc, char **argv, const std::vector<Option> &table,
                  const char *synopsis = "[options]");

/** Print the usage line and one entry per table row to @p os. */
void printUsage(std::ostream &os, const char *prog, const char *synopsis,
                const std::vector<Option> &table);

} // namespace cli
} // namespace dramctrl

#endif // DRAMCTRL_HARNESS_CLI_OPTIONS_H
