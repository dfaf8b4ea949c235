/**
 * @file
 * The one main() of every bench and example driver: it runs the
 * driver's driverMain() through bench::guardedRun() (bench_util.hh).
 */

#include "bench/bench_util.hh"

#include <cstring>

int
sf::bench::guardedRun(const char *prog, const std::function<int()> &body)
{
    try {
        return body();
    } catch (const UsageError &e) {
        // Name the program by argv[0]'s last component, as OptionTable
        // does.
        const char *slash = std::strrchr(prog, '/');
        std::fprintf(stderr, "%s: %s\n", slash ? slash + 1 : prog,
                     e.what());
        return kUsageExit;
    } catch (const FatalError &e) {
        return e.exitStatus(); // fatal() already printed it
    }
}

int
main(int argc, char **argv)
{
    return sf::bench::guardedRun(argv[0],
                                 [&] { return driverMain(argc, argv); });
}
