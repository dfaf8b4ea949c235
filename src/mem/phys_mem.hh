/**
 * @file
 * Sparse functional backing store plus a simple per-address-space
 * virtual memory layout.
 *
 * The simulator is "oracle-functional, timing-directed": workload
 * generators and stream engines read/write values here functionally,
 * while the timing models (caches, NoC, DRAM) decide when those
 * accesses complete. Indirect streams therefore chase real pointer
 * values, exactly as the paper's SE_L3 does.
 */

#ifndef SF_MEM_PHYS_MEM_HH
#define SF_MEM_PHYS_MEM_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/annotations.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace sf {
namespace mem {

constexpr uint32_t pageBytes = 4096;
constexpr Addr pageMask = ~static_cast<Addr>(pageBytes - 1);

constexpr Addr
pageAlign(Addr a)
{
    return a & pageMask;
}

/**
 * Sparse page-granularity physical memory with typed accessors.
 *
 * Thread safety: with setConcurrent(true) (the tile-parallel engine,
 * DESIGN.md §4i) the page map is guarded by a reader/writer lock, so
 * functional accesses from different shard threads — including lazy
 * first-touch allocation from speculative indirect-stream chasing —
 * are safe. Page *contents* carry no locking: two simulated writers
 * to the same line are a workload race and already nondeterministic
 * at the protocol level. In the default serial mode every lock is
 * skipped, keeping the hot path identical to the pre-parallel kernel.
 */
class PhysMem
{
  public:
    /** Read @p size bytes at @p paddr into @p out (zero-fill fresh). */
    void
    read(Addr paddr, void *out, size_t size) const
    {
        auto l = readLock();
        auto *dst = static_cast<uint8_t *>(out);
        while (size > 0) {
            Addr page = pageAlign(paddr);
            size_t off = static_cast<size_t>(paddr - page);
            size_t chunk = std::min(size, pageBytes - off);
            auto it = _pages.find(page);
            if (it == _pages.end()) {
                std::memset(dst, 0, chunk);
            } else {
                std::memcpy(dst, it->second.data() + off, chunk);
            }
            dst += chunk;
            paddr += chunk;
            size -= chunk;
        }
    }

    /** Write @p size bytes at @p paddr (allocate fresh pages). */
    void
    write(Addr paddr, const void *in, size_t size)
    {
        const auto *src = static_cast<const uint8_t *>(in);
        while (size > 0) {
            Addr page = pageAlign(paddr);
            size_t off = static_cast<size_t>(paddr - page);
            size_t chunk = std::min(size, pageBytes - off);
            uint8_t *data = nullptr;
            {
                auto l = readLock();
                auto it = _pages.find(page);
                if (it != _pages.end())
                    data = it->second.data();
            }
            if (!data) {
                auto l = writeLock();
                auto &storage = _pages[page];
                if (storage.empty())
                    storage.resize(pageBytes, 0);
                data = storage.data();
            }
            std::memcpy(data + off, src, chunk);
            src += chunk;
            paddr += chunk;
            size -= chunk;
        }
    }

    /** Eagerly allocate the zero-filled page backing @p paddr. */
    void
    materialize(Addr paddr)
    {
        Addr page = pageAlign(paddr);
        auto l = writeLock();
        auto &storage = _pages[page];
        if (storage.empty())
            storage.resize(pageBytes, 0);
    }

    /**
     * Guard the page map for concurrent functional access from shard
     * worker threads. Serial runs leave this off and never touch the
     * lock. Flip only while no worker is running.
     */
    void setConcurrent(bool on) { _concurrent = on; }

    template <typename T>
    T
    readT(Addr paddr) const
    {
        T v;
        read(paddr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeT(Addr paddr, T v)
    {
        write(paddr, &v, sizeof(T));
    }

    /** Read an unsigned integer of 1/2/4/8 bytes. */
    uint64_t
    readUint(Addr paddr, uint32_t size) const
    {
        switch (size) {
          case 1: return readT<uint8_t>(paddr);
          case 2: return readT<uint16_t>(paddr);
          case 4: return readT<uint32_t>(paddr);
          case 8: return readT<uint64_t>(paddr);
          default:
            panic("unsupported integer size %u", size);
        }
    }

    /** Read a signed integer of 4/8 bytes (index values). */
    int64_t
    readInt(Addr paddr, uint32_t size) const
    {
        switch (size) {
          case 4: return readT<int32_t>(paddr);
          case 8: return readT<int64_t>(paddr);
          default:
            panic("unsupported index size %u", size);
        }
    }

    size_t
    numAllocatedPages() const
    {
        auto l = readLock();
        return _pages.size();
    }

  private:
    std::shared_lock<std::shared_mutex>
    readLock() const
    {
        std::shared_lock<std::shared_mutex> l(_mu, std::defer_lock);
        if (_concurrent)
            l.lock();
        return l;
    }

    std::unique_lock<std::shared_mutex>
    writeLock() const
    {
        std::unique_lock<std::shared_mutex> l(_mu, std::defer_lock);
        if (_concurrent)
            l.lock();
        return l;
    }

    std::unordered_map<Addr, std::vector<uint8_t>> _pages
        SF_GUARDED_BY(_mu);
    mutable std::shared_mutex _mu;
    bool _concurrent = false;
};

/**
 * Per-address-space virtual layout: a bump allocator for arrays and a
 * page table mapping virtual to physical pages.
 *
 * The mapping deliberately scrambles page frames (so NUCA placement of
 * consecutive virtual pages is not trivially identity) while staying
 * deterministic. The frame is a pure hash of the virtual page number,
 * so a lazily first-touched page (speculative indirect-stream chasing
 * can translate any address mid-run) gets the same frame no matter
 * which shard thread touches it first or when — placement, and hence
 * timing, is independent of worker count. The only order-dependent
 * path is the linear probe on a frame-hash collision; with thousands
 * of pages hashed into a 2^28-frame window, the smoke_threads
 * byte-compare would surface one, and none occurs in the shipped
 * workloads.
 *
 * Thread safety mirrors PhysMem: setConcurrent(true) guards the page
 * table with a reader/writer lock; serial mode skips every lock.
 */
class AddressSpace
{
  public:
    AddressSpace(int asid, PhysMem &mem)
        : _asid(asid), _mem(mem),
          _brk(0x10000000ULL + static_cast<Addr>(asid) * 0x100000000ULL)
    {}

    int asid() const { return _asid; }

    /** Allocate @p bytes (page-aligned region), return base vaddr. */
    Addr
    alloc(uint64_t bytes, const std::string &label = "")
    {
        (void)label;
        auto l = writeLock();
        Addr base = _brk;
        uint64_t span = (bytes + pageBytes - 1) & ~uint64_t(pageBytes - 1);
        // Leave a guard page between allocations.
        _brk += span + pageBytes;
        for (Addr va = base; va < base + span; va += pageBytes)
            mapPage(va);
        return base;
    }

    /** Translate; allocates the page on first touch. */
    Addr
    translate(Addr vaddr)
    {
        Addr vpage = pageAlign(vaddr);
        {
            auto l = readLock();
            auto it = _pageTable.find(vpage);
            if (it != _pageTable.end())
                return it->second + (vaddr - vpage);
        }
        auto l = writeLock();
        auto it = _pageTable.find(vpage);
        if (it != _pageTable.end())
            return it->second + (vaddr - vpage);
        return mapPage(vpage) + (vaddr - vpage);
    }

    /** Translate without allocating; invalidAddr when unmapped. */
    Addr
    translateExisting(Addr vaddr) const
    {
        Addr vpage = pageAlign(vaddr);
        auto l = readLock();
        auto it = _pageTable.find(vpage);
        if (it == _pageTable.end())
            return invalidAddr;
        return it->second + (vaddr - vpage);
    }

    /**
     * Guard the page table for concurrent translation from shard
     * worker threads (see PhysMem::setConcurrent); propagated to the
     * backing store too. Flip only while no worker is running.
     */
    void
    setConcurrent(bool on)
    {
        _concurrent = on;
        _mem.setConcurrent(on);
    }

    // Typed functional accessors through the translation.
    template <typename T>
    T
    readT(Addr vaddr)
    {
        return _mem.readT<T>(translate(vaddr));
    }

    template <typename T>
    void
    writeT(Addr vaddr, T v)
    {
        _mem.writeT<T>(translate(vaddr), v);
    }

    int64_t
    readInt(Addr vaddr, uint32_t size)
    {
        return _mem.readInt(translate(vaddr), size);
    }

    PhysMem &mem() { return _mem; }

  private:
    /** Map one page; the caller holds the write lock (concurrent mode). */
    Addr
    mapPage(Addr vpage) SF_REQUIRES(_mu)
    {
        // Deterministic frame scramble: hash the virtual page number.
        uint64_t vpn = vpage / pageBytes;
        uint64_t h = vpn * 0x9e3779b97f4a7c15ULL +
                     static_cast<uint64_t>(_asid) * 0xbf58476d1ce4e5b9ULL;
        h ^= h >> 29;
        // Keep physical frames within a 1 TB window, collision-adjusted.
        Addr pframe = (h % (1ULL << 28));
        Addr paddr = pframe * pageBytes;
        while (_usedFrames.count(paddr)) {
            paddr += pageBytes;
        }
        _usedFrames.insert(paddr);
        _pageTable.emplace(vpage, paddr);
        // Materialize eagerly so the first functional access to a
        // fresh mapping finds backing storage already in place.
        _mem.materialize(paddr);
        return paddr;
    }

    std::shared_lock<std::shared_mutex>
    readLock() const
    {
        std::shared_lock<std::shared_mutex> l(_mu, std::defer_lock);
        if (_concurrent)
            l.lock();
        return l;
    }

    std::unique_lock<std::shared_mutex>
    writeLock()
    {
        std::unique_lock<std::shared_mutex> l(_mu, std::defer_lock);
        if (_concurrent)
            l.lock();
        return l;
    }

    int _asid;
    PhysMem &_mem;
    Addr _brk SF_GUARDED_BY(_mu);
    std::unordered_map<Addr, Addr> _pageTable SF_GUARDED_BY(_mu);
    std::unordered_set<Addr> _usedFrames SF_GUARDED_BY(_mu);
    mutable std::shared_mutex _mu;
    bool _concurrent = false;
};

} // namespace mem
} // namespace sf

#endif // SF_MEM_PHYS_MEM_HH
