#include "sim/debug.hh"

#include <cstdarg>
#include <cstdlib>
#include <cstring>

namespace sf {
namespace debug {

uint64_t flagMask = 0;

namespace {

std::FILE *outStream = nullptr;

const char *const flagNames[numFlags] = {
    "Cache", "NoC", "StreamFloat", "SEL3", "DRAM", "Core",
};

/** Applies SF_DEBUG_FLAGS before main() runs. */
const bool envInitialized = (initFromEnv(), true);

} // namespace

const char *
flagName(Flag f)
{
    auto idx = static_cast<size_t>(f);
    return idx < numFlags ? flagNames[idx] : "?";
}

std::vector<std::string>
allFlagNames()
{
    return std::vector<std::string>(flagNames, flagNames + numFlags);
}

bool
parseFlag(const std::string &name, Flag &out)
{
    for (size_t i = 0; i < numFlags; ++i) {
        if (name == flagNames[i]) {
            out = static_cast<Flag>(i);
            return true;
        }
    }
    return false;
}

void
enable(Flag f)
{
    flagMask |= uint64_t(1) << static_cast<uint32_t>(f);
}

void
disable(Flag f)
{
    flagMask &= ~(uint64_t(1) << static_cast<uint32_t>(f));
}

bool
enable(const std::string &name)
{
    Flag f;
    if (!parseFlag(name, f))
        return false;
    enable(f);
    return true;
}

bool
disable(const std::string &name)
{
    Flag f;
    if (!parseFlag(name, f))
        return false;
    disable(f);
    return true;
}

void
enableAll()
{
    flagMask = (uint64_t(1) << numFlags) - 1;
}

void
disableAll()
{
    flagMask = 0;
}

size_t
setFlagsFromString(const std::string &spec)
{
    size_t applied = 0;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string tok = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (tok.empty())
            continue;
        bool negate = tok[0] == '-';
        if (negate)
            tok.erase(0, 1);
        if (tok == "All") {
            negate ? disableAll() : enableAll();
            ++applied;
        } else if (negate ? disable(tok) : enable(tok)) {
            ++applied;
        } else {
            std::fprintf(stderr,
                         "warn: unknown debug flag '%s' (known:",
                         tok.c_str());
            for (size_t i = 0; i < numFlags; ++i)
                std::fprintf(stderr, " %s", flagNames[i]);
            std::fprintf(stderr, ")\n");
        }
    }
    return applied;
}

void
initFromEnv()
{
    // sflint: allow(D2, debug flags pick log output only, read at startup)
    const char *env = std::getenv("SF_DEBUG_FLAGS");
    if (env && *env)
        setFlagsFromString(env);
}

void
setOutput(std::FILE *f)
{
    outStream = f;
}

std::FILE *
output()
{
    return outStream ? outStream : stderr;
}

void
print(Flag f, Tick tick, const char *who, const char *fmt, ...)
{
    std::FILE *out = output();
    std::fprintf(out, "%10llu: %s: [%s] ", (unsigned long long)tick,
                 who, flagName(f));
    va_list args;
    va_start(args, fmt);
    std::vfprintf(out, fmt, args);
    va_end(args);
    std::fputc('\n', out);
}

} // namespace debug
} // namespace sf
