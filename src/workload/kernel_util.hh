/**
 * @file
 * Shared machinery for kernel op generation.
 *
 * KernelThread unifies the stream-specialized and plain binaries: a
 * kernel describes its accesses as stream views (affine / indirect
 * descriptors); in stream mode the helpers emit stream_cfg /
 * stream_load / stream_step / stream_end, in plain mode they emit
 * ordinary loads at the addresses the view tracks. Either way the
 * dynamic access sequence is identical, which is what makes the
 * baseline comparison fair.
 */

#ifndef SF_WORKLOAD_KERNEL_UTIL_HH
#define SF_WORKLOAD_KERNEL_UTIL_HH

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "isa/op_source.hh"
#include "mem/phys_mem.hh"
#include "sim/logging.hh"

namespace sf {
namespace workload {

/** Base class for per-thread kernel op generators. */
class KernelThread : public isa::OpEmitter
{
  public:
    KernelThread(mem::AddressSpace &as, bool use_streams, int tid,
                 int vec_elems)
        : _as(as), _useStreams(use_streams), _tid(tid), _vec(vec_elems)
    {}

  protected:
    struct View
    {
        isa::StreamConfig cfg;
        uint64_t iter = 0;
    };

    mem::AddressSpace &_as;
    bool _useStreams;
    int _tid;
    int _vec;

    /** Shorthand for building an affine 1D stream config. */
    static isa::StreamConfig
    affine1d(StreamId sid, Addr base, uint32_t elem_size, uint64_t len,
             int64_t stride_bytes, bool is_store = false)
    {
        isa::StreamConfig c;
        c.sid = sid;
        c.isStore = is_store;
        c.affine.base = base;
        c.affine.elemSize = elem_size;
        c.affine.nDims = 1;
        c.affine.stride[0] = stride_bytes;
        c.affine.len[0] = len;
        return c;
    }

    /** 2-level affine stream (rows of a matrix, blocked patterns). */
    static isa::StreamConfig
    affine2d(StreamId sid, Addr base, uint32_t elem_size,
             uint64_t len_inner, int64_t stride_inner,
             uint64_t len_outer, int64_t stride_outer,
             bool is_store = false)
    {
        isa::StreamConfig c = affine1d(sid, base, elem_size, len_inner,
                                       stride_inner, is_store);
        c.affine.nDims = 2;
        c.affine.stride[1] = stride_outer;
        c.affine.len[1] = len_outer;
        return c;
    }

    /** Indirect stream B[A[i]*scale + offset], w consecutive items. */
    static isa::StreamConfig
    indirectOn(StreamId sid, StreamId base_sid, Addr target_base,
               uint32_t elem_size, uint32_t idx_size, int64_t scale,
               uint32_t w_len = 1, uint64_t total_elems = 0)
    {
        isa::StreamConfig c;
        c.sid = sid;
        c.hasIndirect = true;
        c.baseSid = base_sid;
        c.indirect.base = target_base;
        c.indirect.elemSize = elem_size;
        c.indirect.idxSize = idx_size;
        c.indirect.scale = scale;
        c.indirect.wLen = w_len;
        // The affine part mirrors the base pattern for bookkeeping.
        c.affine.elemSize = elem_size;
        c.affine.len[0] = total_elems;
        return c;
    }

    /**
     * Configure a group of streams. In plain mode only the views are
     * registered (no ops emitted).
     */
    void
    beginStreams(std::vector<isa::Op> &out,
                 std::vector<isa::StreamConfig> group)
    {
        for (const auto &cfg : group)
            _views[cfg.sid] = View{cfg, 0};
        if (_useStreams)
            emitStreamCfg(out, std::move(group));
    }

    /**
     * Consume @p elems elements of stream @p sid at its current
     * iteration. @return the op position (for dependences).
     * @p addr_dep adds a dependence (plain-mode indirect loads depend
     * on the index load).
     */
    uint64_t
    loadView(std::vector<isa::Op> &out, StreamId sid,
             uint16_t elems = 1, uint64_t addr_dep = 0)
    {
        View &v = view(sid);
        uint32_t esz = elemSizeOf(v);
        auto size = static_cast<uint16_t>(
            std::min<uint32_t>(esz * elems, lineBytes));
        if (_useStreams) {
            uint64_t pos = emitStreamLoad(out, sid, elems, size);
            return pos;
        }
        Addr addr = addrOf(v, v.iter);
        uint64_t pos = emitLoad(out, addr, size, pcOf(sid), addr_dep);
        out.back().streamEligible = true;
        return pos;
    }

    /** Advance stream @p sid by @p elems. */
    void
    stepView(std::vector<isa::Op> &out, StreamId sid, uint16_t elems = 1)
    {
        View &v = view(sid);
        if (_useStreams)
            emitStreamStep(out, sid, elems);
        v.iter += elems;
    }

    /**
     * Store @p elems elements through stream @p sid at its current
     * iteration (caller steps separately).
     */
    uint64_t
    storeView(std::vector<isa::Op> &out, StreamId sid,
              uint64_t data_dep = 0, uint16_t elems = 1)
    {
        View &v = view(sid);
        uint32_t esz = elemSizeOf(v);
        auto size = static_cast<uint16_t>(
            std::min<uint32_t>(esz * elems, lineBytes));
        if (_useStreams) {
            uint64_t pos = emitStreamStore(out, sid, data_dep, elems);
            out.back().size = size;
            return pos;
        }
        Addr addr = addrOf(v, v.iter);
        return emitStore(out, addr, size, pcOf(sid), data_dep);
    }

    /** Deconstruct streams (stream_end in stream mode). */
    void
    endStreams(std::vector<isa::Op> &out,
               std::initializer_list<StreamId> sids)
    {
        for (StreamId sid : sids) {
            if (_useStreams)
                emitStreamEnd(out, sid);
            _views.erase(sid);
        }
    }

    /** Address of a view's current element (functional, any mode). */
    Addr viewAddr(StreamId sid)
    {
        View &v = view(sid);
        return addrOf(v, v.iter);
    }

    /** The address a view's element @p idx refers to. */
    Addr
    addrOf(View &v, uint64_t idx)
    {
        if (!v.cfg.hasIndirect)
            return v.cfg.affine.elemAddr(idx);
        return v.cfg.indirect.elemAddr(idx, view(v.cfg.baseSid).cfg.affine,
                                       _as);
    }

    /**
     * Emit one vectorized pass over @p iters elements: each vector
     * iteration loads every stream in @p loads, performs @p fp_per_vec
     * FP ops and @p int_per_vec integer ops (chained on the loads),
     * optionally stores to @p store_sid, and steps all streams.
     */
    void
    rowPass(std::vector<isa::Op> &out, uint64_t iters,
            const std::vector<StreamId> &loads, StreamId store_sid,
            int fp_per_vec, int int_per_vec = 0, int vec_override = 0)
    {
        uint64_t done = 0;
        int vec = vec_override > 0 ? vec_override : _vec;
        while (done < iters) {
            auto elems = static_cast<uint16_t>(
                std::min<uint64_t>(vec, iters - done));
            uint64_t dep_a = 0, dep_b = 0;
            for (StreamId sid : loads) {
                uint64_t p = loadView(out, sid, elems);
                dep_b = dep_a;
                dep_a = p;
            }
            uint64_t last = 0;
            for (int k = 0; k < fp_per_vec; ++k) {
                last = emitCompute(out, isa::OpKind::FpAlu,
                                   k == 0 ? dep_a : last,
                                   k == 0 ? dep_b : 0);
            }
            for (int k = 0; k < int_per_vec; ++k) {
                last = emitCompute(out, isa::OpKind::IntAlu,
                                   last ? last : dep_a);
            }
            if (store_sid != invalidStream) {
                storeView(out, store_sid, last ? last : dep_a, elems);
                stepView(out, store_sid, elems);
            }
            for (StreamId sid : loads)
                stepView(out, sid, elems);
            done += elems;
        }
    }

    /** Distinct fake PC per static access site (prefetcher training). */
    static uint32_t pcOf(StreamId sid)
    {
        return 0x4000 + static_cast<uint32_t>(sid);
    }

  private:
    View &
    view(StreamId sid)
    {
        auto it = _views.find(sid);
        sf_assert(it != _views.end(), "unknown view %d", sid);
        return it->second;
    }

    uint32_t
    elemSizeOf(const View &v) const
    {
        return v.cfg.hasIndirect ? v.cfg.indirect.elemSize
                                 : v.cfg.affine.elemSize;
    }

    std::unordered_map<StreamId, View> _views;
};

} // namespace workload
} // namespace sf

#endif // SF_WORKLOAD_KERNEL_UTIL_HH
