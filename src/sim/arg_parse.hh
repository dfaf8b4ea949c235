/**
 * @file
 * The command-line front end of every driver (quickstart, explore, the
 * benches, sweep, fuzz): one declarative option table plus
 * the value validators its entries use.
 */

#ifndef SF_SIM_ARG_PARSE_HH
#define SF_SIM_ARG_PARSE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace sf {

/** Exit status of a malformed command line (nothing was built). */
constexpr int kUsageExit = 2;

/** A rejected command line, e.g. "--scale must be ..., got 'x'". */
class UsageError : public FatalError
{
  public:
    using FatalError::FatalError;
};

// Validators: the parsed value, or a UsageError naming @p flag. None
// skips whitespace or accepts trailing characters.

/** A worker count (sweep -j): a decimal integer in [1, 4096]. */
int parseThreadCount(const std::string &value, const std::string &flag);
/** A mesh size "NxM", both sides decimal integers in [1, 4096]. */
std::pair<int, int> parseMesh(const std::string &value,
                              const std::string &flag);
/** A finite real > 0. */
double parsePositiveReal(const std::string &value, const std::string &flag);
/** A decimal integer that fits in 64 bits (0 allowed). */
uint64_t parseCount(const std::string &value, const std::string &flag);
/** A data-set size: a decimal integer in [1, 2^40]. */
uint64_t parseSize(const std::string &value, const std::string &flag);
/** A comma-separated list of non-empty items. */
std::vector<std::string> parseList(const std::string &value,
                                   const std::string &flag);

/**
 * One driver's options: each entry is a name, a value placeholder, a
 * help line and a validating setter. "--name" takes "--name=VALUE" (a
 * switch if the placeholder is empty), "-x" takes "-xVALUE" or
 * "-x VALUE", and a bare name is the next positional argument. --help
 * prints the list and exits 0; an unknown option, a missing or
 * malformed value or a stray positional prints the reason and the
 * list to stderr and exits kUsageExit before anything is built.
 */
class OptionTable
{
  public:
    /** Receives the value (empty for a switch) once it was matched. */
    using Setter = std::function<void(const std::string &value)>;

    /** @p prog is argv[0]; the usage names its last path component. */
    explicit OptionTable(const std::string &prog)
        : _prog(prog.substr(prog.find_last_of('/') + 1))
    {}

    void
    add(const std::string &name, const std::string &value,
        const std::string &help, Setter set)
    {
        _entries.push_back({name, value, help, std::move(set)});
    }

    /** A switch that sets @p target. */
    void
    flag(const std::string &name, const std::string &help, bool &target)
    {
        add(name, "", help, [&target](const std::string &) {
            target = true;
        });
    }

    /** An entry whose text is stored as given. */
    void
    text(const std::string &name, const std::string &value,
         const std::string &help, std::string &target)
    {
        add(name, value, help,
            [&target](const std::string &v) { target = v; });
    }

    /** An entry stored as @p parse(VALUE, name), a validator above. */
    template <typename T, typename Parse>
    void
    bind(const std::string &name, const std::string &value,
         const std::string &help, T &target, Parse parse)
    {
        add(name, value, help, [name, &target, parse](const std::string &v) {
            target = parse(v, name);
        });
    }

    /**
     * Apply @p args (argv without the program name) in order. Returns
     * false at --help/-h; throws at the first bad token: a UsageError,
     * or the FatalError of a library parser a setter calls.
     */
    bool apply(const std::vector<std::string> &args) const;
    /** The usage line and one line per entry. */
    std::string usage() const;
    /** apply() for main(): exits 0 after --help, kUsageExit on errors. */
    void parse(int argc, char **argv) const;

  private:
    struct Entry
    {
        std::string name, value, help;
        Setter set;
        bool positional() const { return name[0] != '-'; }
    };

    std::string _prog;
    std::vector<Entry> _entries;
};

} // namespace sf

#endif // SF_SIM_ARG_PARSE_HH
