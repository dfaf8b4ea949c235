/**
 * @file
 * Driver-flag value validation shared by every binary that accepts
 * --threads/-j (quickstart, the bench suite, the sweep). A zero,
 * negative or non-numeric worker count used to reach the engine as a
 * silently clamped value; this helper turns it into an immediate
 * fatal() that names the flag, mirroring sim/output_path.hh.
 */

#ifndef SF_SIM_ARG_PARSE_HH
#define SF_SIM_ARG_PARSE_HH

#include <string>

namespace sf {

/**
 * Parse a worker-thread count from a flag value. Accepts a positive
 * decimal integer; fatal() naming @p flag on anything else (empty,
 * non-numeric, trailing garbage, zero, negative, or absurdly large).
 */
int parseThreadCount(const std::string &value, const char *flag);

} // namespace sf

#endif // SF_SIM_ARG_PARSE_HH
