/**
 * @file
 * The one main() of every bench and example driver: it runs the
 * driver's driverMain() through bench::guardedRun() (bench_util.hh).
 */

#include "bench/bench_util.hh"

int
sf::bench::guardedRun(const char *prog, const std::function<int()> &body)
{
    try {
        return body();
    } catch (const UsageError &e) {
        std::fprintf(stderr, "%s: %s\n", prog, e.what());
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
