/**
 * @file
 * Set-associative tag/state array shared by all cache levels.
 *
 * Lines carry the metadata the paper's mechanisms need beyond plain
 * MESI: which stream (if any) brought the line in (§IV-D reuse
 * tracking), whether it was prefetched, whether it has been reused
 * since fill (Fig. 2 telemetry), and the directory sharer/owner info
 * when used as an L3 bank.
 */

#ifndef SF_MEM_CACHE_ARRAY_HH
#define SF_MEM_CACHE_ARRAY_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/replacement.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace sf {
namespace mem {

/** MESI stable states for private caches; L3 uses Invalid/Valid. */
enum class LineState : uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Per-line metadata. */
struct CacheLine
{
    Addr tag = invalidAddr; //!< line-aligned physical address
    LineState state = LineState::Invalid;
    bool dirty = false;

    // --- Telemetry and stream-floating support ---
    /** True once the line has been accessed after its fill. */
    bool reused = false;
    /** Filled by a prefetcher (accuracy accounting). */
    bool prefetched = false;
    /** Stream that brought the line in (§IV-D); invalid if none. */
    StreamId fillStream = invalidStream;
    /** Fill access came from a compiler-recognized stream (Fig. 2a). */
    bool streamEligible = false;
    /** Extended L2 tag: credit sequence number at last dirty L1 pass. */
    uint16_t seqNum = 0;

    // --- Directory info (used when the array is an L3 bank) ---
    uint64_t sharers = 0; //!< bitmask of L2s with a copy
    TileId owner = invalidTile; //!< L2 holding M/E, if any

    /**
     * --verify data plane: the line's byte image, materialized lazily
     * on the first store (null means "equal to the level below").
     * Shared, never mutated in place once attached to a message; the
     * timing model ignores it entirely.
     */
    std::shared_ptr<std::array<uint8_t, lineBytes>> vdata;

    bool valid() const { return state != LineState::Invalid; }

    void
    reset()
    {
        *this = CacheLine();
    }
};

/** Result of a fill: what was evicted (if anything). */
struct Eviction
{
    bool valid = false;
    CacheLine line;
};

/** A physical-address-indexed set-associative array. */
class CacheArray
{
  public:
    CacheArray(uint64_t size_bytes, uint32_t ways, ReplPolicy policy)
        : _ways(ways), _sets(size_bytes / lineBytes / ways),
          _lines(static_cast<size_t>(size_bytes / lineBytes)),
          _repl(makeReplacement(policy, _sets, ways))
    {
        sf_assert(_sets > 0 && (_sets & (_sets - 1)) == 0,
                  "cache set count must be a power of two (got %zu)",
                  _sets);
    }

    size_t numSets() const { return _sets; }
    uint32_t numWays() const { return _ways; }

    /**
     * Override the line-index function used for set selection. Banked
     * caches (the NUCA L3) must strip the interleaving bits so that a
     * bank's sets cover its whole address slice; the default is the
     * global line number. Tags always use the full line address.
     */
    void
    setIndexFunction(std::function<uint64_t(Addr)> fn)
    {
        _indexFn = std::move(fn);
    }

    /** Find the line holding @p paddr; nullptr on miss. No LRU update. */
    CacheLine *
    probe(Addr paddr)
    {
        Addr tag = lineAlign(paddr);
        size_t set = setOf(paddr);
        for (uint32_t w = 0; w < _ways; ++w) {
            CacheLine &l = _lines[set * _ways + w];
            if (l.valid() && l.tag == tag)
                return &l;
        }
        return nullptr;
    }

    /** Probe and update replacement state on hit. */
    CacheLine *
    access(Addr paddr)
    {
        Addr tag = lineAlign(paddr);
        size_t set = setOf(paddr);
        for (uint32_t w = 0; w < _ways; ++w) {
            CacheLine &l = _lines[set * _ways + w];
            if (l.valid() && l.tag == tag) {
                _repl->touch(set, w);
                return &l;
            }
        }
        return nullptr;
    }

    /**
     * Allocate a way for @p paddr (must not be present), evicting if
     * necessary. The new line is returned in Invalid state; the caller
     * sets state/metadata.
     */
    CacheLine &
    fill(Addr paddr, Eviction &evicted)
    {
        sf_assert(probe(paddr) == nullptr, "double fill");
        size_t set = setOf(paddr);
        // Prefer an invalid way.
        for (uint32_t w = 0; w < _ways; ++w) {
            CacheLine &l = _lines[set * _ways + w];
            if (!l.valid()) {
                evicted.valid = false;
                l.reset();
                l.tag = lineAlign(paddr);
                _repl->insert(set, w);
                return l;
            }
        }
        uint32_t w = _repl->victim(set);
        CacheLine &l = _lines[set * _ways + w];
        evicted.valid = true;
        evicted.line = l;
        l.reset();
        l.tag = lineAlign(paddr);
        _repl->insert(set, w);
        return l;
    }

    /**
     * Like fill(), but only evicts victims satisfying @p can_evict
     * (e.g. the L3 never evicts lines owned M by a private cache).
     * @return nullptr when no way can be freed; the caller must retry.
     */
    CacheLine *
    fillIf(Addr paddr, Eviction &evicted,
           const std::function<bool(const CacheLine &)> &can_evict)
    {
        sf_assert(probe(paddr) == nullptr, "double fill");
        size_t set = setOf(paddr);
        for (uint32_t w = 0; w < _ways; ++w) {
            CacheLine &l = _lines[set * _ways + w];
            if (!l.valid()) {
                evicted.valid = false;
                l.reset();
                l.tag = lineAlign(paddr);
                _repl->insert(set, w);
                return &l;
            }
        }
        // Ask the policy first; fall back to scanning.
        uint32_t w = _repl->victim(set);
        if (!can_evict(_lines[set * _ways + w])) {
            bool found = false;
            for (uint32_t i = 0; i < _ways; ++i) {
                if (can_evict(_lines[set * _ways + i])) {
                    w = i;
                    found = true;
                    break;
                }
            }
            if (!found)
                return nullptr;
        }
        CacheLine &l = _lines[set * _ways + w];
        evicted.valid = true;
        evicted.line = l;
        l.reset();
        l.tag = lineAlign(paddr);
        _repl->insert(set, w);
        return &l;
    }

    /** Invalidate the line holding @p paddr if present. */
    bool
    invalidate(Addr paddr)
    {
        CacheLine *l = probe(paddr);
        if (!l)
            return false;
        l->reset();
        return true;
    }

    /** Visit each way of the set @p paddr maps to (debug / directory). */
    void
    forEachInSet(Addr paddr, const std::function<void(CacheLine &)> &fn)
    {
        size_t set = setOf(paddr);
        for (uint32_t w = 0; w < _ways; ++w)
            fn(_lines[set * _ways + w]);
    }

    /** Iterate all valid lines (used for flush / end-of-run stats). */
    void
    forEachValid(const std::function<void(CacheLine &)> &fn)
    {
        for (auto &l : _lines) {
            if (l.valid())
                fn(l);
        }
    }


  private:
    size_t
    setOf(Addr paddr) const
    {
        uint64_t line_index =
            _indexFn ? _indexFn(paddr) : paddr / lineBytes;
        return static_cast<size_t>(line_index & (_sets - 1));
    }

    std::function<uint64_t(Addr)> _indexFn;
    uint32_t _ways;
    size_t _sets;
    std::vector<CacheLine> _lines;
    std::unique_ptr<Replacement> _repl;
};

} // namespace mem
} // namespace sf

#endif // SF_MEM_CACHE_ARRAY_HH
