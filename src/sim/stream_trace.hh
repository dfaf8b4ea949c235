/**
 * @file
 * Stream-lifecycle tracing: config → float → migrate → credit-stall →
 * sink → end transitions per stream, with ticks and tile coordinates.
 *
 * Each SE_core and SE_L3 appends its own transitions to its own
 * StreamLog (SystemConfig::traceStreams; no log, no recording). Every
 * record is made in the owning tile's execution context, so the logs
 * need no lock and their contents do not depend on the worker count.
 * writeChromeTrace() merges them into Chrome trace-event JSON (load in
 * chrome://tracing or https://ui.perfetto.dev): one track per stream
 * incarnation (pid = owning core, one named thread per (stream id,
 * generation)), with each lifecycle state rendered as a duration
 * slice up to the next transition; `end` is an instant.
 */

#ifndef SF_SIM_STREAM_TRACE_HH
#define SF_SIM_STREAM_TRACE_HH

#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace sf {
namespace trace {

/** Lifecycle states/transitions of a (possibly floated) stream. */
enum class StreamPhase : uint8_t
{
    Config,      //!< stream_cfg committed at the core
    Float,       //!< SE_core floated the stream into the hierarchy
    Arrive,      //!< config/migration landed at an SE_L3 bank
    Migrate,     //!< SE_L3 handed the stream to the next bank
    CreditStall, //!< SE_L3 issue blocked on the credit horizon
    Resume,      //!< issue resumed after a credit refresh
    Sink,        //!< SE_core pulled the stream back to the core
    End,         //!< stream_end committed / remote completion
};

const char *phaseName(StreamPhase p);

struct StreamEvent
{
    Tick tick = 0;
    GlobalStreamId gsid;
    /**
     * Float generation of the incarnation (SE_L2 stamps it on every
     * float and migration message). SE_core records the generation
     * the stream's next float will carry until it floats. So once a
     * stream has floated, the next stream_cfg of its id gets a new
     * track, and a late message of the old generation stays on the
     * old one; incarnations that never float share a track in order.
     */
    uint32_t gen = 0;
    StreamPhase phase = StreamPhase::Config;
    /** Tile where the transition happened (bank for SE_L3 events). */
    TileId tile = invalidTile;
    std::string detail;
};

/** One component's transitions, in its execution order. */
using StreamLog = std::vector<StreamEvent>;

/**
 * Write @p logs as Chrome trace-event JSON. Events are bucketed per
 * (core, stream id, gen) track in the order given, then stable-sorted
 * by tick, so same-tick events of one track keep log order. Ticks map
 * to trace microseconds at the 2 GHz clock of Table III.
 */
void writeChromeTrace(std::ostream &os, const std::vector<StreamLog> &logs);

} // namespace trace
} // namespace sf

#endif // SF_SIM_STREAM_TRACE_HH
