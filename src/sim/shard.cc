/**
 * @file
 * TileDomains: shard worker pool and the quantum-barrier window loop
 * (see shard.hh and DESIGN.md §4i for the scheme and the determinism
 * argument).
 */

#include "sim/shard.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace sf {
namespace sim {

namespace {

/**
 * Shard index of the executing host thread: 0 for the thread that
 * calls runWindows() (it runs shard 0), 1..S-1 for the workers. Used
 * to pick the right outbox without locks.
 */
// sflint: allow(S1, thread_local is per-thread state, not shared)
thread_local int tlsShard = 0;

/** @p shards clamped to the tile count, after checking both. */
int
shardCount(int shards, int numTiles)
{
    sf_assert(shards >= 1, "need at least one shard");
    sf_assert(numTiles >= 1, "need at least one tile");
    return std::min(shards, numTiles);
}

} // namespace

TileDomains::TileDomains(EventQueue &global, int numTiles, int shards,
                         Cycles lookahead)
    : _global(global), _lookahead(lookahead ? lookahead : 1),
      _barrier(shardCount(shards, numTiles), WindowStep{this})
{
    shards = shardCount(shards, numTiles);
    for (int s = 0; s < shards; ++s)
        _shardQ.push_back(std::make_unique<EventQueue>());
    _keyCnt.assign(size_t(numTiles), 0);
    _outbox.resize(size_t(shards));
    _postGlobal.resize(size_t(shards));
    _errors.assign(size_t(shards), nullptr);
    try {
        for (int s = 1; s < shards; ++s)
            _workers.emplace_back([this, s] { workerLoop(s); });
    } catch (...) {
        // Arrive for the workers that never started, then stop the
        // ones that did before the error leaves the constructor.
        (void)_barrier.arrive(shards - 1 - ptrdiff_t(_workers.size()));
        stopWorkers();
        throw;
    }
}

TileDomains::~TileDomains()
{
    stopWorkers();
}

void
TileDomains::stopWorkers()
{
    // The completion step turns the request into _quit, so no worker
    // can read it before every worker has arrived.
    _quitRequested = true;
    _barrier.arrive_and_wait();
    for (auto &t : _workers)
        t.join();
}

void
TileDomains::scheduleTile(TileId target, Tick when, uint64_t key,
                          Handler fn, EventPriority prio)
{
    int s = shardOf(target);
    if (_inWindow && s != tlsShard) {
        _outbox[size_t(tlsShard)].push_back(
            {target, when, key, prio, std::move(fn)});
        return;
    }
    EventQueue &q = *_shardQ[size_t(s)];
    if (key)
        q.scheduleKeyed(when, key, std::move(fn), prio);
    else
        q.schedule(when, std::move(fn), prio);
}

void
TileDomains::postGlobal(Tick when, TileId srcTile,
                        std::function<void()> op)
{
    _postGlobal[size_t(tlsShard)].push_back(
        {when, srcTile, std::move(op)});
}

void
TileDomains::runShardSlice(int shard)
{
    try {
        _shardQ[size_t(shard)]->run(_windowEnd - 1);
    } catch (...) {
        _errors[size_t(shard)] = std::current_exception();
    }
}

void
TileDomains::workerLoop(int shard)
{
    tlsShard = shard;
    for (;;) {
        _barrier.arrive_and_wait();
        if (_quit)
            return;
        if (_inWindow)
            runShardSlice(shard);
    }
}

void
TileDomains::completeWindow() noexcept
{
    try {
        if (_inWindow) {
            _inWindow = false;
            for (auto &err : _errors) {
                if (err && !_error)
                    _error = err;
                err = nullptr;
            }
            if (!_error)
                windowBarrier(_windowEnd);
        }
        if (_quitRequested)
            _quit = true;
        else if (!_error)
            _inWindow = openWindow();
    } catch (...) {
        _error = std::current_exception();
    }
}

void
TileDomains::windowBarrier(Tick windowEnd)
{
    Tick boundary = windowEnd - 1;

    // 1. Merge cross-shard messages. Insertion order (shard-major
    //    FIFO) is irrelevant: every entry carries a canonical key, so
    //    execution order at equal (when, prio) is (src tile, seq) by
    //    construction — the same order a direct insert would yield.
    for (auto &box : _outbox) {
        for (OutboxEntry &e : box) {
            EventQueue &q = *_shardQ[size_t(shardOf(e.target))];
            if (e.key)
                q.scheduleKeyed(e.when, e.key, std::move(e.fn), e.prio);
            else
                q.schedule(e.when, std::move(e.fn), e.prio);
        }
        box.clear();
    }

    // 2. Barrier hook (profiler cross-tile op flush).
    if (_barrierHook)
        _barrierHook();

    // 3. Deferred global-service ops in canonical (when, srcTile)
    //    order. Ops sharing both fields come from one tile and thus
    //    one shard, where stable_sort preserves their (deterministic)
    //    FIFO order.
    size_t nOps = 0;
    for (auto &v : _postGlobal)
        nOps += v.size();
    if (nOps) {
        std::vector<GlobalOp> ops;
        ops.reserve(nOps);
        for (auto &v : _postGlobal) {
            for (GlobalOp &op : v)
                ops.push_back(std::move(op));
            v.clear();
        }
        std::stable_sort(ops.begin(), ops.end(),
                         [](const GlobalOp &a, const GlobalOp &b) {
                             if (a.when != b.when)
                                 return a.when < b.when;
                             return a.srcTile < b.srcTile;
                         });
        for (GlobalOp &op : ops)
            op.op();
    }

    // 4. Global services up to the boundary. A global event at tick g
    //    only ever executes in the window with boundary == g (the
    //    g + 1 term in the window computation), so the tile events it
    //    schedules through scheduleTile land exactly at its own tick.
    _global.run(boundary);

    // 5. Park the global clock on the boundary so end-of-run reads
    //    (sampler stop, utilization denominators, stats formulas) are
    //    partition-independent.
    _global.advanceTo(boundary);
}

bool
TileDomains::openWindow()
{
    if (*_stop && (*_stop)()) {
        _exit = Exit::Stopped;
        return false;
    }
    Tick smin = maxTick;
    for (auto &q : _shardQ)
        smin = std::min(smin, q->nextTick());
    Tick g = _global.nextTick();
    Tick first = std::min(smin, g);
    if (first == maxTick) {
        _exit = Exit::Empty;
        return false;
    }
    if (first > _limit) {
        _exit = Exit::Limit;
        return false;
    }
    Tick eShard = smin > maxTick - _lookahead ? maxTick : smin + _lookahead;
    Tick eGlob = g == maxTick ? maxTick : g + 1;
    Tick end = std::min(eShard, eGlob);
    if (_limit != maxTick && end > _limit + 1)
        end = _limit + 1;
    _windowEnd = end;
    return true;
}

TileDomains::Exit
TileDomains::runWindows(const std::function<bool()> &stop, Tick limit)
{
    _stop = &stop;
    _limit = limit;
    for (;;) {
        _barrier.arrive_and_wait();
        if (!_inWindow)
            break;
        runShardSlice(0);
    }
    if (_error)
        std::rethrow_exception(std::exchange(_error, nullptr));
    return _exit;
}

} // namespace sim
} // namespace sf
