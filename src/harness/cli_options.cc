#include "harness/cli_options.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>
#include <limits>

#include "exec/thread_pool.hh"

namespace dramctrl {
namespace cli {

namespace {

/** Help text starts in this column; continuation lines indent to it. */
constexpr std::size_t kHelpColumn = 21;

template <typename T>
void
parseUnsigned(const std::string &flag, const std::string &text, T &out)
{
    const char *last = text.data() + text.size();
    T v = 0;
    auto [ptr, ec] = std::from_chars(text.data(), last, v);
    if (ptr != last || text.empty() ||
        (ec != std::errc() && ec != std::errc::result_out_of_range))
        fatal("%s: '%s' is not an unsigned integer", flag.c_str(),
              text.c_str());
    if (ec == std::errc::result_out_of_range)
        fatal("%s: '%s' is out of range (at most %s)", flag.c_str(),
              text.c_str(),
              std::to_string(std::numeric_limits<T>::max()).c_str());
    out = v;
}

} // namespace

void
parseValue(const std::string &flag, const std::string &text,
           unsigned &out)
{
    parseUnsigned(flag, text, out);
}

void
parseValue(const std::string &flag, const std::string &text,
           std::uint64_t &out)
{
    parseUnsigned(flag, text, out);
}

void
parseValue(const std::string &flag, const std::string &text, double &out)
{
    const char *last = text.data() + text.size();
    double v = 0;
    auto [ptr, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || ptr != last || !std::isfinite(v))
        fatal("%s: '%s' is not a number", flag.c_str(), text.c_str());
    out = v;
}

void
parseValue(const std::string &, const std::string &text,
           std::string &out)
{
    out = text;
}

Option
section(std::string title)
{
    return {"", "", std::move(title), Option::Arg::None, nullptr,
            nullptr};
}

Option
toggle(std::string flag, std::string help, bool &target)
{
    return {std::move(flag), "", std::move(help), Option::Arg::None,
            [&target](const char *) { target = true; }, nullptr};
}

Option
threads(std::string flag, std::string metavar, std::string help,
        unsigned &target)
{
    std::string name = flag;
    return {std::move(flag), std::move(metavar), std::move(help),
            Option::Arg::Required,
            [name, &target](const char *v) {
                parseValue(name, v, target);
                if (target == 0)
                    target = exec::ThreadPool::hardwareThreads();
            },
            nullptr};
}

Option
callback(std::string flag, std::string metavar, std::string help,
         std::function<void(const char *)> fn, Option::Arg arg)
{
    return {std::move(flag), std::move(metavar), std::move(help), arg,
            std::move(fn), nullptr};
}

bool
parseOptions(int argc, char **argv, const std::vector<Option> &table,
             const char *synopsis)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            printUsage(std::cout, argv[0], synopsis, table);
            return false;
        }
        auto opt = std::find_if(table.begin(), table.end(),
                                [&a](const Option &o) {
                                    return !o.flag.empty() && o.flag == a;
                                });
        if (opt == table.end())
            fatal("unknown option '%s' (try --help)", a.c_str());

        const char *value = nullptr;
        if (opt->arg == Option::Arg::Required) {
            if (i + 1 >= argc)
                fatal("missing value for %s", a.c_str());
            value = argv[++i];
        } else if (opt->arg == Option::Arg::Optional && i + 1 < argc &&
                   argv[i + 1][0] != '-') {
            value = argv[++i];
        }
        if (opt->given != nullptr)
            *opt->given = true;
        opt->set(value);
    }
    return true;
}

void
printUsage(std::ostream &os, const char *prog, const char *synopsis,
           const std::vector<Option> &table)
{
    os << "usage: " << prog << " " << synopsis << "\n";
    for (const Option &o : table) {
        if (o.flag.empty()) {
            os << o.help << "\n";
            continue;
        }
        std::string head = "  " + o.flag;
        if (!o.metavar.empty())
            head += " " + o.metavar;
        // Pad to the help column, or two spaces past a long head.
        head.resize(std::max(head.size() + 2, kHelpColumn), ' ');
        os << head;
        for (char c : o.help) {
            os << c;
            if (c == '\n')
                os << std::string(kHelpColumn, ' ');
        }
        os << "\n";
    }
}

} // namespace cli
} // namespace dramctrl
