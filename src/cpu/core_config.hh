/**
 * @file
 * Core model configurations matching Table III.
 */

#ifndef SF_CPU_CORE_CONFIG_HH
#define SF_CPU_CORE_CONFIG_HH

#include <strings.h>

#include <cstdint>
#include <string>

#include "sim/arg_parse.hh"
#include "sim/types.hh"

namespace sf {
namespace cpu {

struct CoreConfig
{
    enum class Kind
    {
        InOrder,
        OutOfOrder,
    };

    Kind kind = Kind::OutOfOrder;
    /** Fetch/issue/commit width. */
    int width = 4;
    /** Instruction queue: max in-flight not-yet-issued ops. */
    int iqSize = 24;
    /** Reorder-buffer (instruction window) size. */
    int robSize = 96;
    int lqSize = 24;
    int sqSize = 24;
    /** Store buffer entries draining to the L1. */
    int sbSize = 24;

    // Functional units (Table III; x2 for OOO8).
    int numIntAlu = 4;
    int numIntMultDiv = 2;
    int numFpAlu = 2;
    int numFpDiv = 2;
    /** L1 cache ports (accesses issued per cycle). */
    int memPorts = 2;

    /** SE_core load FIFO capacity in bytes (256B/1kB/2kB). */
    uint32_t seFifoBytes = 1024;
    /** Max simultaneously configured streams. */
    int seMaxStreams = 12;

    std::string label = "OOO4";

    /** 4-wide in-order core (IO4). */
    static CoreConfig
    io4()
    {
        CoreConfig c;
        c.kind = Kind::InOrder;
        c.width = 4;
        c.iqSize = 10;
        c.robSize = 16; // completion window for the scoreboard
        c.lqSize = 4;
        c.sqSize = 4;
        c.sbSize = 10;
        c.seFifoBytes = 256;
        c.label = "IO4";
        return c;
    }

    /** 4-issue out-of-order core (OOO4). */
    static CoreConfig
    ooo4()
    {
        CoreConfig c;
        c.kind = Kind::OutOfOrder;
        c.width = 4;
        c.iqSize = 24;
        c.robSize = 96;
        c.lqSize = 24;
        c.sqSize = 24;
        c.sbSize = 24;
        c.seFifoBytes = 1024;
        c.label = "OOO4";
        return c;
    }

    /** 8-issue out-of-order core (OOO8). */
    static CoreConfig
    ooo8()
    {
        CoreConfig c;
        c.kind = Kind::OutOfOrder;
        c.width = 8;
        c.iqSize = 64;
        c.robSize = 224;
        c.lqSize = 72;
        c.sqSize = 56;
        c.sbSize = 56;
        c.numIntAlu = 8;
        c.numIntMultDiv = 4;
        c.numFpAlu = 4;
        c.numFpDiv = 4;
        c.memPorts = 4;
        c.seFifoBytes = 2048;
        c.label = "OOO8";
        return c;
    }

    /** io4, ooo4 or ooo8 in any case; else a UsageError naming @p flag. */
    static CoreConfig
    fromName(const std::string &name, const std::string &flag)
    {
        for (const CoreConfig &c : {io4(), ooo4(), ooo8()}) {
            if (strcasecmp(name.c_str(), c.label.c_str()) == 0)
                return c;
        }
        throw UsageError(flag + " must be one of io4, ooo4, ooo8, got '" +
                         name + "'");
    }
};

} // namespace cpu
} // namespace sf

#endif // SF_CPU_CORE_CONFIG_HH
