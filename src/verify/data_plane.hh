/**
 * @file
 * --verify data plane: byte images routed along the coherence
 * protocol's own data movements.
 *
 * The timing model carries no data. In verify mode every component
 * that *would* move bytes (store performs, dirty writebacks, owner
 * forwards, DataU serves, DRAM writes) instead moves a shared 64-byte
 * image through this plane, and every component that *would* read
 * bytes (committing loads, stream-element binds) observes them through
 * it. A null image at any level means "identical to the level below",
 * so clean lines cost nothing and the fall-through chain bottoms out
 * at the immutable PhysMem initial image.
 *
 * Invariants this relies on (MESI, checked by the PR-2 checker):
 *  - writes require M ownership, which invalidates all other private
 *    copies — so any live private-cache image is current;
 *  - at most one dirty image is ever in flight per line (tracked in
 *    _inFlightLines across the eviction/forward/recall windows where the
 *    bytes exist only inside a message).
 *
 * Everything here is header-only so that sf_mem, sf_cpu, sf_stream and
 * sf_flt can hook into it without a link-time cycle.
 */

#ifndef SF_VERIFY_DATA_PLANE_HH
#define SF_VERIFY_DATA_PLANE_HH

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "mem/cache_array.hh"
#include "mem/phys_mem.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "verify/value.hh"

namespace sf {
namespace verify {

using LineData = std::array<uint8_t, lineBytes>;
using LinePtr = std::shared_ptr<LineData>;

/**
 * One committed store whose bytes have not yet been performed by the
 * protocol. Lives in the owning tile's program-order overlay until the
 * private cache applies every piece.
 */
struct StoreRec
{
    uint64_t token = 0; //!< global commit order
    Addr vaddr = 0;
    uint16_t size = 0;
    LineData bytes{}; //!< pattern bytes, [0, size)
    TileId tile = invalidTile;
    uint32_t pc = 0;
    StreamId sid = invalidStream;
    bool isStream = false;
    uint16_t applied = 0; //!< bytes performed so far
};

using StoreRecPtr = std::shared_ptr<StoreRec>;

/** Provenance of the most recent committed store to a line. */
struct WriterInfo
{
    TileId tile = invalidTile;
    uint32_t pc = 0;
    StreamId sid = invalidStream;
    bool isStream = false;
    uint64_t token = 0;
};

class DataPlane
{
  public:
    DataPlane(mem::AddressSpace &as, int num_tiles)
        : _as(as), _pending(num_tiles), _uncached(num_tiles)
    {}

    // ----- wiring (TiledSystem::buildTiles) -----

    void
    addL2(TileId t, mem::CacheArray *arr)
    {
        if (static_cast<size_t>(t) >= _l2.size())
            _l2.resize(t + 1, nullptr);
        _l2[t] = arr;
    }

    void addL3(mem::CacheArray *arr) { _l3.push_back(arr); }

    /** Extra dirty-image source (parked delayed evictions, etc.). */
    void
    addDirtyScan(std::function<LinePtr(Addr)> fn)
    {
        _dirtyScans.push_back(std::move(fn));
    }

    // ----- core side: commit-order store lifecycle -----

    /**
     * A store just committed with value @p value. Enters the tile's
     * program-order overlay; the returned record rides the eventual
     * memory access down to the private cache's write-perform point.
     */
    StoreRecPtr
    storeCommitted(TileId tile, Addr vaddr, uint16_t size, uint64_t value,
                   uint32_t pc, StreamId sid, bool is_stream)
    {
        sf_assert(size > 0 && size <= lineBytes,
                  "verify store of %u bytes", size);
        auto rec = std::make_shared<StoreRec>();
        rec->token = ++_nextToken;
        rec->vaddr = vaddr;
        rec->size = size;
        storeBytes(value, rec->bytes.data(), size);
        rec->tile = tile;
        rec->pc = pc;
        rec->sid = sid;
        rec->isStream = is_stream;
        _pending[tile].push_back(rec);
        for (Addr vl = lineAlign(vaddr); vl < vaddr + size;
             vl += lineBytes) {
            _writtenVlines.insert(vl);
            _lastWriter[vl] = {tile, pc, sid, is_stream, rec->token};
        }
        return rec;
    }

    /**
     * The protocol performed @p piece_size bytes of @p rec at the L2
     * write point (@p line is the owning L2 line, already M). Called
     * once per line-split piece; a fully-performed store leaves the
     * overlay so it can never shadow a younger applied store.
     */
    void
    applyStorePiece(mem::CacheLine *line, Addr piece_paddr,
                    Addr piece_vaddr, uint16_t piece_size,
                    const StoreRecPtr &rec)
    {
        if (!rec)
            return;
        materialize(line, lineAlign(piece_paddr));
        size_t src_off = static_cast<size_t>(piece_vaddr - rec->vaddr);
        size_t dst_off = static_cast<size_t>(piece_paddr & (lineBytes - 1));
        std::memcpy(line->vdata->data() + dst_off,
                    rec->bytes.data() + src_off, piece_size);
        rec->applied += piece_size;
        if (rec->applied >= rec->size)
            retire(rec);
    }

    // ----- protocol side: byte-image movement hooks -----

    /** Dirty handoff: the bytes now exist only inside a message. */
    void
    noteInFlight(Addr line_paddr, const LinePtr &p)
    {
        if (p)
            _inFlightLines[line_paddr] = p;
        else
            _inFlightLines.erase(line_paddr);
    }

    void clearInFlight(Addr line_paddr) { _inFlightLines.erase(line_paddr); }

    /** Private-cache fill: adopt the message image (may be null). */
    void
    privInstall(TileId t, mem::CacheLine *line, Addr line_paddr,
                const LinePtr &p)
    {
        line->vdata = p;
        _uncached[t].erase(line_paddr);
        _inFlightLines.erase(line_paddr);
    }

    /** L3 install (PutM, FwdAck, InvAck recall, MemData). */
    void
    l3Install(mem::CacheLine *line, Addr line_paddr, const LinePtr &p)
    {
        line->vdata = p;
        _inFlightLines.erase(line_paddr);
    }

    /** Memory-controller write: the image reaches the DRAM shadow. */
    void
    dramWrite(Addr line_paddr, const LinePtr &p)
    {
        if (p)
            _shadow[line_paddr] = p;
        _inFlightLines.erase(line_paddr);
    }

    /** SE_L2 observed a DataU for @p line_paddr (null erases). */
    void
    noteUncached(TileId t, Addr line_paddr, const LinePtr &p)
    {
        if (p)
            _uncached[t][line_paddr] = p;
        else
            _uncached[t].erase(line_paddr);
    }

    /** DRAM-level view of a line: shadow image or the initial bytes. */
    LinePtr
    dramSnapshot(Addr line_paddr)
    {
        auto it = _shadow.find(line_paddr);
        if (it != _shadow.end())
            return it->second;
        auto p = std::make_shared<LineData>();
        if (line_paddr != invalidAddr)
            _as.mem().read(line_paddr, p->data(), lineBytes);
        else
            p->fill(0);
        return p;
    }

    /** Materialized copy of the line's current system-wide bytes. */
    LinePtr
    snapshot(Addr line_paddr)
    {
        auto p = std::make_shared<LineData>();
        lineBytesNow(line_paddr, p->data(), nullptr);
        return p;
    }

    // ----- core / SE side: observing bytes -----

    /**
     * Read @p size bytes at virtual @p vaddr as tile @p t observes
     * them at commit: the system-wide image, overridden by the tile's
     * own not-yet-performed stores (store-to-load forwarding).
     * @p stream_elem additionally consults the tile's DataU
     * observations when its private cache does not hold the line.
     */
    void
    readBytes(TileId t, Addr vaddr, uint16_t size, uint8_t *out,
              bool stream_elem)
    {
        size_t done = 0;
        while (done < size) {
            Addr va = vaddr + done;
            Addr vline = lineAlign(va);
            size_t off = static_cast<size_t>(va - vline);
            size_t chunk =
                std::min(static_cast<size_t>(size) - done,
                         static_cast<size_t>(lineBytes) - off);
            LineData img;
            observeLine(t, vline, img.data(), stream_elem);
            std::memcpy(out + done, img.data() + off, chunk);
            done += chunk;
        }
        // The tile's own committed-but-unperformed stores win.
        for (const auto &rec : _pending[t])
            overlayRec(*rec, vaddr, size, out);
    }

    uint64_t
    loadValue(TileId t, Addr vaddr, uint16_t size)
    {
        LineData buf;
        sf_assert(size <= lineBytes, "oversized verify load");
        readBytes(t, vaddr, size, buf.data(), false);
        return foldBytes(buf.data(), size);
    }

    // ----- stream trip counts -----

    void
    addTrips(TileId t, StreamId sid, uint64_t n)
    {
        _trips[{t, sid}] += n;
    }

    const std::map<std::pair<TileId, StreamId>, uint64_t> &
    trips() const
    {
        return _trips;
    }

    // ----- final image (oracle diff) -----

    /**
     * Drain every tile's leftover overlay (normally empty: the final
     * barrier waits for store-buffer drain) into the final image, in
     * global commit order.
     */
    void
    finalize()
    {
        if (_finalized)
            return;
        _finalized = true;
        std::vector<StoreRecPtr> left;
        for (auto &dq : _pending)
            for (auto &r : dq)
                left.push_back(r);
        std::sort(left.begin(), left.end(),
                  [](const StoreRecPtr &a, const StoreRecPtr &b) {
                      return a->token < b->token;
                  });
        for (auto &r : left) {
            size_t done = 0;
            while (done < r->size) {
                Addr va = r->vaddr + done;
                Addr vline = lineAlign(va);
                size_t off = static_cast<size_t>(va - vline);
                size_t chunk = std::min(
                    static_cast<size_t>(r->size) - done,
                    static_cast<size_t>(lineBytes) - off);
                auto it = _finalOverlay.find(vline);
                if (it == _finalOverlay.end()) {
                    LineData img;
                    observeLine(invalidTile, vline, img.data(), false);
                    it = _finalOverlay.emplace(vline, img).first;
                }
                std::memcpy(it->second.data() + off,
                            r->bytes.data() + done, chunk);
                done += chunk;
            }
        }
        for (auto &dq : _pending)
            dq.clear();
    }

    /** Final observed bytes of a virtual line (call finalize() first). */
    void
    finalLine(Addr vline, uint8_t *out)
    {
        auto it = _finalOverlay.find(vline);
        if (it != _finalOverlay.end()) {
            std::memcpy(out, it->second.data(), lineBytes);
            return;
        }
        observeLine(invalidTile, vline, out, false);
    }

    /** Sorted set of virtual lines any committed store touched. */
    const std::set<Addr> &writtenVlines() const { return _writtenVlines; }

    const WriterInfo *
    lastWriter(Addr vline) const
    {
        auto it = _lastWriter.find(vline);
        return it == _lastWriter.end() ? nullptr : &it->second;
    }

  private:
    /**
     * Current system-wide bytes of physical line @p line_paddr:
     * private images (any live one is current under MESI), parked
     * evictions, in-flight dirty images, L3 images, the DRAM shadow,
     * then the immutable initial memory.
     */
    void
    lineBytesNow(Addr line_paddr, uint8_t *out,
                 const mem::CacheLine *exclude)
    {
        if (line_paddr == invalidAddr) {
            std::memset(out, 0, lineBytes);
            return;
        }
        for (auto *arr : _l2) {
            if (!arr)
                continue;
            mem::CacheLine *l = arr->probe(line_paddr);
            if (l && l != exclude && l->vdata) {
                std::memcpy(out, l->vdata->data(), lineBytes);
                return;
            }
        }
        for (auto &scan : _dirtyScans) {
            if (LinePtr p = scan(line_paddr)) {
                std::memcpy(out, p->data(), lineBytes);
                return;
            }
        }
        auto inf = _inFlightLines.find(line_paddr);
        if (inf != _inFlightLines.end()) {
            std::memcpy(out, inf->second->data(), lineBytes);
            return;
        }
        for (auto *arr : _l3) {
            mem::CacheLine *l = arr->probe(line_paddr);
            if (l && l->vdata) {
                std::memcpy(out, l->vdata->data(), lineBytes);
                return;
            }
        }
        auto sh = _shadow.find(line_paddr);
        if (sh != _shadow.end()) {
            std::memcpy(out, sh->second->data(), lineBytes);
            return;
        }
        _as.mem().read(line_paddr, out, lineBytes);
    }

    /** Tile-local view of a virtual line (no own-store overlay). */
    void
    observeLine(TileId t, Addr vline, uint8_t *out, bool stream_elem)
    {
        Addr pline = _as.translateExisting(vline);
        if (pline == invalidAddr) {
            std::memset(out, 0, lineBytes);
            return;
        }
        if (stream_elem && t != invalidTile) {
            // DataU bytes only stand in when the private cache does
            // not hold the line (the cache path supersedes them).
            bool cached =
                static_cast<size_t>(t) < _l2.size() && _l2[t] &&
                _l2[t]->probe(pline) != nullptr;
            if (!cached) {
                auto it = _uncached[t].find(pline);
                if (it != _uncached[t].end()) {
                    std::memcpy(out, it->second->data(), lineBytes);
                    return;
                }
            }
        }
        lineBytesNow(pline, out, nullptr);
    }

    /** Lazily give @p line a private, mutable image. */
    void
    materialize(mem::CacheLine *line, Addr line_paddr)
    {
        if (!line->vdata) {
            auto p = std::make_shared<LineData>();
            lineBytesNow(line_paddr, p->data(), line);
            line->vdata = p;
        } else if (line->vdata.use_count() > 1) {
            // Copy-on-write: snapshots attached to in-flight messages
            // or other levels must not see future stores.
            line->vdata = std::make_shared<LineData>(*line->vdata);
        }
    }

    void
    retire(const StoreRecPtr &rec)
    {
        auto &dq = _pending[rec->tile];
        for (auto it = dq.begin(); it != dq.end(); ++it) {
            if ((*it)->token == rec->token) {
                dq.erase(it);
                return;
            }
        }
    }

    /** Copy the overlap of @p rec onto [vaddr, vaddr+size). */
    static void
    overlayRec(const StoreRec &rec, Addr vaddr, uint16_t size,
               uint8_t *out)
    {
        Addr lo = std::max(rec.vaddr, vaddr);
        Addr hi = std::min(rec.vaddr + rec.size,
                           vaddr + static_cast<Addr>(size));
        if (lo >= hi)
            return;
        std::memcpy(out + (lo - vaddr), rec.bytes.data() + (lo - rec.vaddr),
                    hi - lo);
    }

    mem::AddressSpace &_as;
    std::vector<mem::CacheArray *> _l2;
    std::vector<mem::CacheArray *> _l3;
    std::vector<std::function<LinePtr(Addr)>> _dirtyScans;

    uint64_t _nextToken = 0;
    /** Per-tile program-order overlay of unperformed stores. */
    std::vector<std::deque<StoreRecPtr>> _pending;
    /** Per-tile DataU observations, by physical line. */
    std::vector<std::unordered_map<Addr, LinePtr>> _uncached;
    /** Dirty images living only inside a message, by physical line. */
    std::unordered_map<Addr, LinePtr> _inFlightLines;
    /** Lines written back to DRAM, by physical line. */
    std::unordered_map<Addr, LinePtr> _shadow;

    std::set<Addr> _writtenVlines;
    std::unordered_map<Addr, WriterInfo> _lastWriter;
    std::map<std::pair<TileId, StreamId>, uint64_t> _trips;

    bool _finalized = false;
    std::map<Addr, LineData> _finalOverlay;
};

} // namespace verify
} // namespace sf

#endif // SF_VERIFY_DATA_PLANE_HH
