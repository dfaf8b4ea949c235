/**
 * @file
 * Slab pool for the payloads of in-flight events (DESIGN.md §4l).
 *
 * libstdc++'s std::function stores a callable inline only when it is
 * trivially copyable and at most 16 bytes; anything larger (or holding
 * a shared_ptr, a std::function or a vector) costs a heap allocation
 * to schedule and a free to run. Hot paths therefore park their
 * payload in a pool record and schedule a closure that captures only
 * `[this, T *]`, which std::function stores inline.
 *
 * Records live in slabs threaded on an intrusive free list, like
 * EventQueue's event arena, so steady-state acquire()/release() never
 * allocates. release() resets the record: a T with clear() (a vector)
 * is cleared and keeps its capacity, any other T is assigned T{}. So
 * what a record holds (a MsgPtr, a callback) is dropped as soon as
 * its event returns it, not when the pool dies.
 *
 * Records never change pools, so a pool holds at most its owner's peak
 * of live records, rounded up to a slab.
 */

#ifndef SF_SIM_RECORD_POOL_HH
#define SF_SIM_RECORD_POOL_HH

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace sf {
namespace sim {

template <typename T>
class RecordPool
{
  public:
    /** Records carved per slab growth. */
    static constexpr size_t slabRecords = 64;

    /** A record in its reset state (T{} or cleared). */
    T *
    acquire()
    {
        if (!_free)
            grow();
        Slot *s = _free;
        _free = s->poolNext;
        s->live = true;
        --_available;
        return s;
    }

    /** A record initialised from @p init. */
    template <typename U>
    T *
    acquire(U &&init)
    {
        T *r = acquire();
        *r = std::forward<U>(init);
        return r;
    }

    /** Reset @p r and put it on this pool's free list. */
    void
    release(T *r)
    {
        if constexpr (requires { r->clear(); })
            r->clear();
        else
            *r = T{};
        recycle(r);
    }

    /**
     * Move @p r's payload out and free the record. The moved-from
     * record holds nothing left to drop, so it is not reset.
     */
    T
    take(T *r)
    {
        T payload = std::move(*r);
        recycle(r);
        return payload;
    }

    /** Records carved so far, live or free. */
    size_t capacity() const { return _slabs.size() * slabRecords; }

    /** Records on the free list. */
    size_t available() const { return _available; }

  private:
    struct Slot : T
    {
        Slot *poolNext = nullptr;
        bool live = false;
    };

    void
    recycle(T *r)
    {
        Slot *s = static_cast<Slot *>(r);
        sf_assert(s->live, "record released twice");
        s->live = false;
        s->poolNext = _free;
        _free = s;
        ++_available;
    }

    void
    grow()
    {
        _slabs.push_back(std::make_unique<Slot[]>(slabRecords));
        Slot *slab = _slabs.back().get();
        for (size_t i = slabRecords; i-- > 0;) {
            slab[i].poolNext = _free;
            _free = &slab[i];
        }
        _available += slabRecords;
    }

    std::vector<std::unique_ptr<Slot[]>> _slabs;
    Slot *_free = nullptr;
    size_t _available = 0;
};

} // namespace sim
} // namespace sf

#endif // SF_SIM_RECORD_POOL_HH
