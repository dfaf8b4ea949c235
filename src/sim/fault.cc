#include "sim/fault.hh"

#include <cstdio>
#include <cstdlib>

#include "sim/arg_parse.hh"
#include "sim/logging.hh"

namespace sf {

const char *
faultClassName(FaultClass cls)
{
    switch (cls) {
      case FaultClass::FloatRequest: return "float";
      case FaultClass::CreditGrant: return "credit";
      case FaultClass::StreamEnd: return "end";
      case FaultClass::StreamAck: return "ack";
    }
    return "?";
}

namespace {

double
parseProb(const std::string &token, const std::string &value)
{
    char *end = nullptr;
    double p = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
        throw UsageError("faults: '" + token +
                         "' needs a probability in [0,1], got '" + value +
                         "'");
    }
    return p;
}

} // namespace

FaultConfig
FaultConfig::parse(const std::string &spec)
{
    FaultConfig cfg;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string token = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (token.empty())
            continue;

        std::string key = token;
        std::string value;
        size_t colon = token.find(':');
        if (colon != std::string::npos) {
            key = token.substr(0, colon);
            value = token.substr(colon + 1);
        }

        auto dropKey = [&](FaultClass cls) {
            cfg.drop[static_cast<int>(cls)] = parseProb(key, value);
        };
        auto dupKey = [&](FaultClass cls) {
            cfg.dup[static_cast<int>(cls)] = parseProb(key, value);
        };

        if (key == "none") {
            // explicit no-op
        } else if (key == "seed") {
            cfg.seed = parseCount(value, "faults: " + key);
        } else if (key == "dropfloat") {
            dropKey(FaultClass::FloatRequest);
        } else if (key == "dropcredit") {
            dropKey(FaultClass::CreditGrant);
        } else if (key == "dropend") {
            dropKey(FaultClass::StreamEnd);
        } else if (key == "dropack") {
            dropKey(FaultClass::StreamAck);
        } else if (key == "dupfloat") {
            dupKey(FaultClass::FloatRequest);
        } else if (key == "dupcredit") {
            dupKey(FaultClass::CreditGrant);
        } else if (key == "dupend") {
            dupKey(FaultClass::StreamEnd);
        } else if (key == "dupack") {
            dupKey(FaultClass::StreamAck);
        } else if (key == "delay") {
            cfg.delayProb = parseProb(key, value);
        } else if (key == "delaycycles") {
            cfg.delayCycles = parseCount(value, "faults: " + key);
        } else if (key == "overflow") {
            cfg.overflowEntries =
                value.empty()
                    ? 1
                    : static_cast<int>(parseCount(value, "faults: " + key));
            if (cfg.overflowEntries < 1)
                throw UsageError("faults: overflow needs at least 1 entry");
        } else if (key == "noretry") {
            cfg.noRetry = true;
        } else {
            throw UsageError("faults: unknown token '" + key +
                             "' (see --help)");
        }
    }
    return cfg;
}

std::string
FaultConfig::describe() const
{
    if (!enabled())
        return "none";
    std::string s = detail::formatMessage("seed:%llu",
                                          (unsigned long long)seed);
    for (int i = 0; i < numFaultClasses; ++i) {
        const char *cls = faultClassName(static_cast<FaultClass>(i));
        if (drop[i] > 0)
            s += detail::formatMessage(",drop%s:%g", cls, drop[i]);
        if (dup[i] > 0)
            s += detail::formatMessage(",dup%s:%g", cls, dup[i]);
    }
    if (delayProb > 0) {
        s += detail::formatMessage(",delay:%g,delaycycles:%llu", delayProb,
                                   (unsigned long long)delayCycles);
    }
    if (overflowEntries > 0)
        s += detail::formatMessage(",overflow:%d", overflowEntries);
    if (noRetry)
        s += ",noretry";
    return s;
}

void
FaultInjector::debugDump(std::FILE *out) const
{
    std::fprintf(out, "fault injector: spec=%s\n", _cfg.describe().c_str());
    for (int i = 0; i < numFaultClasses; ++i) {
        std::fprintf(out, "  %-6s dropped=%llu duplicated=%llu\n",
                     faultClassName(static_cast<FaultClass>(i)),
                     (unsigned long long)_dropped[i].value(),
                     (unsigned long long)_duplicated[i].value());
    }
    std::fprintf(out, "  delayed=%llu total=%llu\n",
                 (unsigned long long)_delayed.value(),
                 (unsigned long long)totalInjected());
}

} // namespace sf
