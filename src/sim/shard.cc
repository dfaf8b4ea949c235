/**
 * @file
 * TileDomains: the window loop (see shard.hh and DESIGN.md §4i).
 */

#include "sim/shard.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace sf {
namespace sim {

TileDomains::TileDomains(EventQueue &global, int numTiles,
                         Cycles lookahead)
    : _global(global), _lookahead(lookahead ? lookahead : 1)
{
    sf_assert(numTiles >= 1, "need at least one tile");
    _keyCnt.assign(size_t(numTiles), 0);
}

void
TileDomains::postGlobal(Tick when, TileId srcTile,
                        std::function<void()> op)
{
    _postGlobal.push_back({when, srcTile, std::move(op)});
}

void
TileDomains::windowBarrier(Tick windowEnd)
{
    Tick boundary = windowEnd - 1;

    // 1. Barrier hook (profiler cross-tile op flush).
    if (_barrierHook)
        _barrierHook();

    // 2. Deferred global-service ops in (when, srcTile) order.
    //    stable_sort keeps one tile's same-tick ops in posting order.
    if (!_postGlobal.empty()) {
        std::vector<GlobalOp> ops = std::move(_postGlobal);
        _postGlobal.clear();
        std::stable_sort(ops.begin(), ops.end(),
                         [](const GlobalOp &a, const GlobalOp &b) {
                             if (a.when != b.when)
                                 return a.when < b.when;
                             return a.srcTile < b.srcTile;
                         });
        for (GlobalOp &op : ops)
            op.op();
    }

    // 3. Global services up to the boundary. A global event at tick g
    //    only ever executes in the window with boundary == g (the
    //    g + 1 term in the window computation), so the tile events it
    //    schedules land exactly at its own tick.
    _global.run(boundary);

    // 4. Park the global clock on the boundary so end-of-run reads
    //    (sampler stop, utilization denominators, stats formulas) see
    //    the window grid, not the last global event.
    _global.advanceTo(boundary);
}

TileDomains::Exit
TileDomains::runWindows(const std::function<bool()> &stop, Tick limit)
{
    for (;;) {
        if (stop && stop())
            return Exit::Stopped;
        Tick t = _tiles.nextTick();
        Tick g = _global.nextTick();
        Tick first = std::min(t, g);
        if (first == maxTick)
            return Exit::Empty;
        if (first > limit)
            return Exit::Limit;
        Tick eTile = t > maxTick - _lookahead ? maxTick : t + _lookahead;
        Tick eGlob = g == maxTick ? maxTick : g + 1;
        Tick end = std::min(eTile, eGlob);
        if (limit != maxTick && end > limit + 1)
            end = limit + 1;
        _tiles.run(end - 1);
        windowBarrier(end);
    }
}

} // namespace sim
} // namespace sf
