/**
 * @file
 * Stream history table (Table II of the paper).
 *
 * SE_core records each stream's runtime behaviour - requests issued,
 * private-cache misses, reuses of stream-filled lines, and aliasing
 * stores - to decide when to float a stream whose length is unknown
 * (§IV-D). The table is indexed by static stream id, so history
 * persists across reconfigurations of the same loop. Stream ids are
 * small, so the rows are a dense array.
 */

#ifndef SF_STREAM_HISTORY_HH
#define SF_STREAM_HISTORY_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace sf {
namespace stream {

/** One row of the stream history table. */
struct StreamHistory
{
    uint64_t requests = 0; //!< stream fetch requests sent
    uint64_t misses = 0;   //!< private cache misses among them
    uint64_t reuses = 0;   //!< reuses of lines this stream brought in
    bool aliased = false;  //!< a store aliased this stream
};

/** The per-core table. */
class StreamHistoryTable
{
  public:
    /** The row of @p sid, created empty on first use. Growing the
     *  table moves its rows: do not hold a row across a call that may
     *  reach another sid's row. */
    StreamHistory &
    row(StreamId sid)
    {
        sf_assert(sid >= 0, "history row for invalid stream %d", sid);
        auto i = static_cast<size_t>(sid);
        if (i >= _rows.size())
            _rows.resize(i + 1);
        return _rows[i];
    }

    /** The row of @p sid; null above the highest sid used since the
     *  last clear() (rows below it read empty until used). */
    const StreamHistory *
    find(StreamId sid) const
    {
        auto i = static_cast<size_t>(sid);
        return sid >= 0 && i < _rows.size() ? &_rows[i] : nullptr;
    }

    void clear() { _rows.clear(); }

  private:
    std::vector<StreamHistory> _rows;
};

} // namespace stream
} // namespace sf

#endif // SF_STREAM_HISTORY_HH
