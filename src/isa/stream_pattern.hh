/**
 * @file
 * Stream pattern descriptors (Table I of the paper).
 *
 * An affine pattern covers up to three loop levels:
 *   addr(i) = base + i0*strd0 + i1*strd1 + i2*strd2
 * where the linear iteration i decomposes as i0 = i % len0,
 * i1 = (i / len0) % len1, i2 = i / (len0*len1).
 *
 * An indirect pattern chains on a base (index) stream:
 *   addr(i, w) = base + value(A[i]) * scale + offset + w*elemSize
 * covering the paper's B[A[i][j][k] + w] form (Eq. 1).
 */

#ifndef SF_ISA_STREAM_PATTERN_HH
#define SF_ISA_STREAM_PATTERN_HH

#include <cstdint>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace sf {
namespace isa {

/** Up to 3-level affine access pattern. */
struct AffinePattern
{
    Addr base = 0;
    /** Bytes accessed per element. */
    uint32_t elemSize = 4;
    /** Number of live loop levels, 1..3. */
    int nDims = 1;
    /** Byte strides, innermost first. */
    int64_t stride[3] = {0, 0, 0};
    /** Trip counts, innermost first (len[d]=1 for unused dims). */
    uint64_t len[3] = {1, 1, 1};

    /** Total number of elements across all levels. */
    uint64_t
    totalElems() const
    {
        uint64_t t = 1;
        for (int d = 0; d < nDims; ++d)
            t *= len[d];
        return t;
    }

    /** Address of linear iteration @p iter. */
    Addr
    elemAddr(uint64_t iter) const
    {
        Addr a = base;
        uint64_t rem = iter;
        for (int d = 0; d < nDims; ++d) {
            uint64_t idx = (d == nDims - 1) ? rem : rem % len[d];
            rem = (d == nDims - 1) ? 0 : rem / len[d];
            a += static_cast<Addr>(
                static_cast<int64_t>(idx) * stride[d]);
        }
        return a;
    }

    /**
     * Estimated memory footprint in bytes: the span of distinct lines a
     * full traversal touches, assuming non-overlapping levels.
     */
    uint64_t
    footprintBytes() const
    {
        uint64_t span = elemSize;
        for (int d = 0; d < nDims; ++d) {
            uint64_t sp = static_cast<uint64_t>(
                stride[d] < 0 ? -stride[d] : stride[d]);
            if (sp == 0 || len[d] == 0)
                continue;
            span += sp * (len[d] - 1);
        }
        return span;
    }

    bool
    operator==(const AffinePattern &o) const = default;
};

/**
 * Walks an AffinePattern incrementally: it holds an element index,
 * per-level counters and that element's address, and moves forward by
 * adding strides instead of re-deriving the address with a divide and
 * a modulo per level. Any index other than the current one or the
 * next reseeks from AffinePattern::elemAddr, which stays the
 * reference. As in elemAddr, the outermost level never wraps. Address
 * arithmetic is modulo 2^64, so negative strides need no signed
 * operations.
 */
class AffineCursor
{
  public:
    AffineCursor() = default;

    /** A cursor on element 0 of @p pat (which it copies). */
    explicit AffineCursor(const AffinePattern &pat) : _pat(pat)
    {
        _addr = pat.base;
    }

    /** Address of element @p idx; the cursor moves there. */
    Addr
    at(uint64_t idx)
    {
        if (idx == _idx + 1)
            next();
        else if (idx != _idx)
            seek(idx);
        return _addr;
    }

  private:
    /** Step to the next element, carrying into outer levels. */
    void
    next()
    {
        ++_idx;
        int last = _pat.nDims - 1;
        for (int d = 0; d < _pat.nDims; ++d) {
            _addr += static_cast<Addr>(_pat.stride[d]);
            if (++_ctr[d] < _pat.len[d] || d == last)
                return;
            // Level d wrapped: rewind its whole row.
            _addr -= _pat.len[d] * static_cast<Addr>(_pat.stride[d]);
            _ctr[d] = 0;
        }
    }

    /** Reseek to element @p idx from the reference address. */
    void
    seek(uint64_t idx)
    {
        _idx = idx;
        _addr = _pat.elemAddr(idx);
        uint64_t rem = idx;
        for (int d = 0; d < _pat.nDims; ++d) {
            bool outer = d == _pat.nDims - 1;
            _ctr[d] = outer ? rem : rem % _pat.len[d];
            rem = outer ? 0 : rem / _pat.len[d];
        }
    }

    AffinePattern _pat;
    uint64_t _idx = 0;
    uint64_t _ctr[3] = {0, 0, 0};
    Addr _addr = 0;
};

/** Indirect pattern chained on an index stream (60-bit config). */
struct IndirectPattern
{
    /** Base of the target array B. */
    Addr base = 0;
    /** Bytes accessed per indirect element. */
    uint32_t elemSize = 4;
    /** Bytes of each index value in the base stream (4 or 8). */
    uint32_t idxSize = 4;
    /** addr = base + idx*scale + offset (+ w*elemSize for w-loop). */
    int64_t scale = 4;
    int64_t offset = 0;
    /** Consecutive items per indirect location (the w loop of Eq. 1). */
    uint32_t wLen = 1;

    Addr
    targetAddr(int64_t idx_value, uint32_t w = 0) const
    {
        return static_cast<Addr>(
            static_cast<int64_t>(base) + idx_value * scale + offset +
            static_cast<int64_t>(w) * elemSize);
    }

    /** Items each index value covers: wLen, where 0 counts as 1. */
    uint32_t items() const { return wLen ? wLen : 1; }

    /** The base-stream element whose index value element @p idx
     *  chases. */
    uint64_t baseElem(uint64_t idx) const { return idx / items(); }

    /** The first element chasing base-stream element @p baseIdx. */
    uint64_t firstChild(uint64_t baseIdx) const { return baseIdx * items(); }

    /**
     * Address of element @p idx: reads the index value of
     * baseElem(@p idx), laid out by @p basePat, through
     * @p mem.readInt(addr, idxSize) (an mem::AddressSpace), then
     * applies targetAddr with the item's w offset. The caller decides
     * whether the index data is available yet.
     */
    template <typename IndexReader>
    Addr
    elemAddr(uint64_t idx, const AffinePattern &basePat,
             IndexReader &mem) const
    {
        int64_t value = mem.readInt(basePat.elemAddr(baseElem(idx)), idxSize);
        return targetAddr(value, static_cast<uint32_t>(idx % items()));
    }

    bool
    operator==(const IndirectPattern &o) const = default;
};

/**
 * Full configuration of one stream, as carried by a stream_cfg
 * instruction and (when floated) by the stream configuration packet.
 */
struct StreamConfig
{
    StreamId sid = invalidStream;
    bool isStore = false;

    /** Affine pattern; for indirect streams this mirrors the base. */
    AffinePattern affine;

    /** Indirection, dependent on the stream @p baseSid. */
    bool hasIndirect = false;
    IndirectPattern indirect;
    StreamId baseSid = invalidStream;

    /**
     * Whether the total trip count is statically known. Unknown-length
     * streams (data-dependent loop bounds) terminate via stream_end.
     */
    bool lengthKnown = true;

    /** Total elements when lengthKnown (including the w loop). */
    uint64_t
    totalElems() const
    {
        uint64_t n = affine.totalElems();
        if (hasIndirect)
            n *= indirect.wLen;
        return n;
    }

    /** Bytes of one element: the indirect target's or the affine one's. */
    uint32_t
    elemSize() const
    {
        return hasIndirect ? indirect.elemSize : affine.elemSize;
    }

    /** One past the last element; ~0 when the length is unknown. */
    uint64_t
    horizon() const
    {
        return lengthKnown ? totalElems() : ~0ULL;
    }

    /** Estimated footprint used by the floating policy (§IV-D). */
    uint64_t
    footprintBytes() const
    {
        if (!lengthKnown)
            return 0;
        if (hasIndirect)
            return totalElems() * indirect.elemSize;
        return affine.footprintBytes();
    }

    /**
     * Size in bits of the corresponding configuration packet fields
     * (Table I): used by tests to check the "less than one cache line"
     * claim and by the NoC to size config messages.
     */
    uint32_t
    configBits() const
    {
        // cid(6) + sid(4) + base(48) + strd(3x48=144) + ptaddr(48) +
        // iter(48) + elem size(8) + len(3x48=144) = 450 bits
        uint32_t bits = 6 + 4 + 48 + 3 * 48 + 48 + 48 + 8 + 3 * 48;
        if (hasIndirect) {
            // sid(4) + base(48) + elem size(8) = 60 bits
            bits += 4 + 48 + 8;
        }
        return bits;
    }
};

} // namespace isa
} // namespace sf

#endif // SF_ISA_STREAM_PATTERN_HH
