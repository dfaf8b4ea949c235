/**
 * @file
 * TileDomains: shard worker pool and the quantum-barrier window loop
 * (see shard.hh and DESIGN.md §4i for the scheme and the determinism
 * argument).
 */

#include "sim/shard.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace sf {
namespace sim {

namespace {

/**
 * Shard index of the executing host thread: 0 for the main thread
 * (which always runs shard 0 and the barrier phase), 1..S-1 for the
 * workers. Used to pick the right outbox without locks.
 */
// sflint: allow(S1, thread_local is per-thread state, not shared)
thread_local int tlsShard = 0;

} // namespace

TileDomains::TileDomains(EventQueue &global, int numTiles, int shards,
                         Cycles lookahead)
    : _global(global), _numTiles(numTiles),
      _lookahead(lookahead ? lookahead : 1)
{
    sf_assert(shards >= 1, "need at least one shard");
    sf_assert(numTiles >= 1, "need at least one tile");
    if (shards > numTiles)
        shards = numTiles;
    for (int s = 0; s < shards; ++s)
        _shardQ.push_back(std::make_unique<EventQueue>());
    _keyCnt.assign(size_t(numTiles), 0);
    _outbox.resize(size_t(shards));
    _postGlobal.resize(size_t(shards));
    _errors.assign(size_t(shards), nullptr);
}

TileDomains::~TileDomains()
{
    stopWorkers();
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
TileDomains::deferWake(TileId tile, Handler fn)
{
    _wakes.emplace_back(tile, std::move(fn));
}

Tick
TileDomains::earliestShardTick()
{
    Tick t = maxTick;
    for (auto &q : _shardQ)
        t = std::min(t, q->nextTick());
    return t;
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
        _startBarrier->arrive_and_wait();
        if (_shutdown)
            return;
        runShardSlice(shard);
        _endBarrier->arrive_and_wait();
    }
}

void
TileDomains::startWorkers()
{
    if (_workersStarted)
        return;
    _workersStarted = true;
    _shutdown = false;
    ptrdiff_t n = ptrdiff_t(shards());
    _startBarrier = std::make_unique<std::barrier<>>(n);
    _endBarrier = std::make_unique<std::barrier<>>(n);
    for (int s = 1; s < shards(); ++s)
        _workers.emplace_back([this, s] { workerLoop(s); });
}

void
TileDomains::stopWorkers()
{
    if (!_workersStarted)
        return;
    _shutdown = true;
    _startBarrier->arrive_and_wait();
    for (auto &t : _workers)
        t.join();
    _workers.clear();
    _workersStarted = false;
}

void
TileDomains::rethrowWorkerError()
{
    for (auto &err : _errors) {
        if (!err)
            continue;
        std::exception_ptr e = err;
        for (auto &x : _errors)
            x = nullptr;
        // Park the pool before unwinding: the error path (fatal
        // diagnostics, drain checks) must not race live workers.
        stopWorkers();
        std::rethrow_exception(e);
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

    // 2. Main-thread hook (profiler cross-tile op flush).
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
    //    g + 1 term in the window computation), so anything it defers
    //    for tiles via deferWake lands exactly at its own tick.
    _global.run(boundary);

    // 5. Insert deferred wakes at the boundary tick. Unkeyed events
    //    order before keyed ones, and the wake list order is the
    //    (deterministic) global-slice execution order.
    for (auto &w : _wakes) {
        _shardQ[size_t(shardOf(w.first))]->schedule(
            boundary, std::move(w.second), EventPriority::Default);
    }
    _wakes.clear();

    // 6. Park the global clock on the boundary so end-of-run reads
    //    (sampler stop, utilization denominators, stats formulas) are
    //    partition-independent.
    _global.advanceTo(boundary);
}

TileDomains::Exit
TileDomains::runWindows(const std::function<bool()> &stop, Tick limit)
{
    for (;;) {
        if (stop && stop())
            return Exit::Stopped;
        Tick smin = earliestShardTick();
        Tick g = _global.nextTick();
        Tick first = std::min(smin, g);
        if (first == maxTick)
            return Exit::Empty;
        if (first > limit)
            return Exit::Limit;
        Tick eShard =
            smin > maxTick - _lookahead ? maxTick : smin + _lookahead;
        Tick eGlob = g == maxTick ? maxTick : g + 1;
        Tick end = std::min(eShard, eGlob);
        if (limit != maxTick && end > limit + 1)
            end = limit + 1;

        if (shards() == 1) {
            // Same engine, no synchronization: exceptions propagate
            // directly, matching the pre-parallel serial behavior.
            _windowEnd = end;
            _shardQ[0]->run(end - 1);
        } else {
            startWorkers();
            _windowEnd = end;
            _inWindow = true;
            _startBarrier->arrive_and_wait();
            runShardSlice(0);
            _endBarrier->arrive_and_wait();
            _inWindow = false;
            rethrowWorkerError();
        }
        windowBarrier(end);
    }
}

} // namespace sim
} // namespace sf
