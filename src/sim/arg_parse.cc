/**
 * @file
 * Driver-flag value validation (see arg_parse.hh).
 */

#include "sim/arg_parse.hh"

#include <cerrno>
#include <climits>
#include <cstdlib>

#include "sim/logging.hh"

namespace sf {

int
parseThreadCount(const std::string &value, const char *flag)
{
    if (value.empty())
        fatal("%s: empty worker count (expected a positive integer)",
              flag);
    errno = 0;
    char *end = nullptr;
    long n = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
        fatal("%s: '%s' is not a number (expected a positive integer)",
              flag, value.c_str());
    }
    if (errno == ERANGE || n > 4096) {
        fatal("%s: %s worker threads is out of range (max 4096)", flag,
              value.c_str());
    }
    if (n <= 0) {
        fatal("%s: worker count must be at least 1, got %s", flag,
              value.c_str());
    }
    return static_cast<int>(n);
}

} // namespace sf
