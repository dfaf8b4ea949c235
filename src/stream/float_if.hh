/**
 * @file
 * Interface from SE_core to the floating machinery (SE_L2, src/flt).
 * stream/ stays independent of flt/; a null controller disables
 * floating entirely (the SS configuration).
 */

#ifndef SF_STREAM_FLOAT_IF_HH
#define SF_STREAM_FLOAT_IF_HH

#include <functional>
#include <vector>

#include "isa/stream_pattern.hh"
#include "sim/types.hh"

namespace sf {
namespace stream {

/** Everything the SE_L2 needs to float one stream group. */
struct FloatRequest
{
    /** The base affine (load) stream. */
    isa::StreamConfig base;
    /** First element the floated engine is responsible for. */
    uint64_t baseStart = 0;

    struct Indirect
    {
        isa::StreamConfig cfg;
        uint64_t start = 0;
    };
    /** Dependent indirect streams, floated together (§IV-B). */
    std::vector<Indirect> indirects;
};

/** The SE_L2-side controller for floated streams. */
class FloatControllerIf
{
  public:
    virtual ~FloatControllerIf() = default;

    /**
     * Float a stream group. @return false if the SE_L2 cannot accept
     * it (buffer exhausted); the stream then stays at the core.
     */
    virtual bool floatStream(const FloatRequest &req) = 0;

    /**
     * Terminate a floated stream (stream_end, early termination, or a
     * sink decision). Pending fetches are redirected through the
     * cache; buffered data is dropped.
     */
    virtual void unfloatStream(StreamId sid) = 0;

    /**
     * Latest float generation issued for @p sid (0 = never floated);
     * each accepted float of @p sid issues the next one.
     */
    virtual uint32_t latestGen(StreamId sid) const = 0;

    /**
     * Fetch indirect floated elements by (sid, index): the core cannot
     * compute their addresses, so these bypass the L1/L2 tag check and
     * match directly in the SE_L2 buffer. @p prof_id is the caller's
     * latency-attribution record (0 = untracked); buffer park time is
     * charged to it.
     */
    virtual void fetchFloatedElems(StreamId sid, uint64_t first_idx,
                                   uint16_t count,
                                   std::function<void()> on_ready,
                                   uint32_t prof_id = 0) = 0;
};

} // namespace stream
} // namespace sf

#endif // SF_STREAM_FLOAT_IF_HH
