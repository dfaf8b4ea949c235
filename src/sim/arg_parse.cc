/**
 * @file
 * The shared option table and its value validators (see arg_parse.hh).
 */

#include "sim/arg_parse.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sf {

namespace {

[[noreturn]] void
reject(const std::string &flag, const char *expected,
       const std::string &value)
{
    throw UsageError(flag + " must be " + expected + ", got '" + value +
                     "'");
}

/** @p digits (part of @p value) as a decimal in [lo, hi], or reject. */
uint64_t
decimal(const std::string &digits, uint64_t lo, uint64_t hi,
        const std::string &flag, const char *expected,
        const std::string &value)
{
    errno = 0;
    uint64_t n = std::strtoull(digits.c_str(), nullptr, 10);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos ||
        errno == ERANGE || n < lo || n > hi)
        reject(flag, expected, value);
    return n;
}

} // namespace

int
parseThreadCount(const std::string &value, const std::string &flag)
{
    return static_cast<int>(
        decimal(value, 1, 4096, flag, "a positive integer up to 4096", value));
}

std::pair<int, int>
parseMesh(const std::string &value, const std::string &flag)
{
    const char *expected = "NxM with both sides in 1..4096";
    size_t x = value.find('x');
    if (x == std::string::npos)
        reject(flag, expected, value);
    return {static_cast<int>(decimal(value.substr(0, x), 1, 4096, flag,
                                     expected, value)),
            static_cast<int>(decimal(value.substr(x + 1), 1, 4096, flag,
                                     expected, value))};
}

double
parsePositiveReal(const std::string &value, const std::string &flag)
{
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (value.empty() || std::isspace(static_cast<unsigned char>(value[0])) ||
        *end != '\0' || !std::isfinite(v) || v <= 0)
        reject(flag, "a positive number", value);
    return v;
}

uint64_t
parseCount(const std::string &value, const std::string &flag)
{
    return decimal(value, 0, UINT64_MAX, flag, "a non-negative integer",
                   value);
}

uint64_t
parseSize(const std::string &value, const std::string &flag)
{
    return decimal(value, 1, uint64_t(1) << 40, flag,
                   "a positive integer up to 2^40", value);
}

std::vector<std::string>
parseList(const std::string &value, const std::string &flag)
{
    std::vector<std::string> out;
    for (size_t pos = 0, comma = 0; comma != std::string::npos;
         pos = comma + 1) {
        comma = value.find(',', pos);
        out.push_back(value.substr(pos, comma - pos));
        if (out.back().empty())
            reject(flag, "a comma-separated list of names", value);
    }
    return out;
}

bool
OptionTable::apply(const std::vector<std::string> &args) const
{
    auto find = [this](const std::string &name) -> const Entry * {
        for (const Entry &e : _entries) {
            if (e.name == name)
                return &e;
        }
        return nullptr;
    };
    size_t positional = 0; // entries scanned for the next positional
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--help" || arg == "-h")
            return false;
        const Entry *e = nullptr;
        std::string value;
        if (arg.rfind("--", 0) == 0) {
            size_t eq = arg.find('=');
            e = find(arg.substr(0, eq));
            if (e && e->value.empty() && eq != std::string::npos)
                throw UsageError("option '" + e->name +
                                 "' takes no value, got '" + arg + "'");
            if (e && !e->value.empty() &&
                (eq == std::string::npos || eq + 1 == arg.size()))
                throw UsageError("option '" + e->name + "' needs a value (" +
                                 e->name + "=" + e->value + ")");
            if (eq != std::string::npos)
                value = arg.substr(eq + 1);
        } else if (arg.size() > 1 && arg[0] == '-') {
            // A short option takes its value attached (-j4) or as the
            // next argument (-j 4); with neither it matches nothing.
            e = find(arg.substr(0, 2));
            if (e && arg.size() > 2)
                value = arg.substr(2);
            else if (e && i + 1 < args.size())
                value = args[++i];
            else
                e = nullptr;
        } else {
            while (positional < _entries.size() &&
                   !_entries[positional].positional())
                ++positional;
            if (positional == _entries.size())
                throw UsageError("unexpected argument '" + arg + "'");
            e = &_entries[positional++];
            value = arg;
        }
        if (!e)
            throw UsageError("unknown option '" + arg + "'");
        e->set(value);
    }
    return true;
}

std::string
OptionTable::usage() const
{
    std::string out = "usage: " + _prog;
    for (const Entry &e : _entries) {
        if (e.positional())
            out += " [" + e.name + "]";
    }
    out += " [options]\n";
    auto line = [&out](std::string left, const std::string &help) {
        left = "  " + left;
        left.resize(std::max<size_t>(left.size() + 1, 24), ' ');
        out += left + help + "\n";
    };
    for (const Entry &e : _entries) {
        bool is_long = e.name.rfind("--", 0) == 0 && !e.value.empty();
        line(e.positional() ? e.name
                            : e.name + (is_long ? "=" : "") + e.value,
             e.help);
    }
    line("-h, --help", "print this list and exit");
    return out;
}

void
OptionTable::parse(int argc, char **argv) const
{
    try {
        if (apply(std::vector<std::string>(argv + 1, argv + argc)))
            return;
        std::fputs(usage().c_str(), stdout);
        std::exit(0);
    } catch (const FatalError &e) {
        // A UsageError, or the FatalError of a library parser.
        std::fprintf(stderr, "%s: %s\n", _prog.c_str(), e.what());
        std::fputs(usage().c_str(), stderr);
        std::exit(kUsageExit);
    }
}

} // namespace sf
