/**
 * @file
 * Shared test harness: a miniature tiled memory system (mesh + private
 * caches + L3 banks + memory controllers, optional stream engines)
 * with no cores, so protocol- and engine-level tests can drive
 * accesses directly.
 */

#ifndef SF_TESTS_COMMON_TEST_FABRIC_HH
#define SF_TESTS_COMMON_TEST_FABRIC_HH

#include <memory>
#include <vector>

#include "flt/se_l2.hh"
#include "flt/se_l3.hh"
#include "mem/l3_bank.hh"
#include "mem/mem_ctrl.hh"
#include "mem/phys_mem.hh"
#include "mem/priv_cache.hh"
#include "mem/tlb.hh"
#include "noc/mesh.hh"
#include "sim/logging.hh"
#include "stream/se_core.hh"

namespace sf {
namespace test {

/** A bare memory fabric for directed tests. */
class TestFabric
{
  public:
    struct Options
    {
        int nx = 2;
        int ny = 2;
        uint32_t interleave = 64;
        bool withStreamEngines = false;
        mem::PrivCacheConfig priv;
        mem::L3BankConfig l3;
        stream::SECoreConfig seCore;
        flt::SEL2Config sel2;
        flt::SEL3Config sel3;
    };

    TestFabric() : TestFabric(Options{}) {}

    explicit TestFabric(const Options &opt)
        : _opt(opt), _as(0, _physMem)
    {
        noc::MeshConfig mc;
        mc.nx = opt.nx;
        mc.ny = opt.ny;
        _mesh = std::make_unique<noc::Mesh>(_eq, mc);
        _nuca = std::make_unique<mem::NucaMap>(opt.nx, opt.ny,
                                               opt.interleave);
        int n = opt.nx * opt.ny;
        for (TileId t = 0; t < n; ++t) {
            std::string tn = "t" + std::to_string(t);
            _tlbs.push_back(std::make_unique<mem::TlbHierarchy>(
                64, 8, 2048, 16, 8, 80));
            _priv.push_back(std::make_unique<mem::PrivCache>(
                tn + ".priv", _eq, t, opt.priv, *_mesh, *_nuca));
            _l3.push_back(std::make_unique<mem::L3Bank>(
                tn + ".l3", _eq, t, opt.l3, *_mesh, *_nuca));
            _memCtrls.push_back(nullptr);
            _seCores.push_back(nullptr);
            _seL2.push_back(nullptr);
            _seL3.push_back(nullptr);

            if (opt.withStreamEngines) {
                stream::SECoreConfig sc = opt.seCore;
                sc.enableFloating = true;
                _seCores[t] = std::make_unique<stream::SECore>(
                    tn + ".se", _eq, t, sc, *_priv[t], *_tlbs[t], _as);
                _seL2[t] = std::make_unique<flt::SEL2>(
                    tn + ".sel2", _eq, t, opt.sel2, *_mesh, *_nuca,
                    *_priv[t], *_tlbs[t], _as, *_seCores[t]);
                _seCores[t]->setFloatController(_seL2[t].get());
                _seL3[t] = std::make_unique<flt::SEL3>(
                    tn + ".sel3", _eq, t, opt.sel3, *_mesh, *_nuca,
                    *_l3[t],
                    [this](int) { return &_as; });
            }

            const auto &ctrls = _nuca->memCtrls();
            if (std::find(ctrls.begin(), ctrls.end(), t) !=
                ctrls.end()) {
                _memCtrls[t] = std::make_unique<mem::MemCtrl>(
                    tn + ".mc", _eq, t, mem::DramConfig(), *_mesh);
            }
            _mesh->bindSink(t, [this, t](const noc::MsgPtr &m) {
                dispatch(t, m);
            });
        }
    }

    /** Run until the event queue drains (or @p limit). */
    Tick
    drain(Tick limit = 10'000'000)
    {
        return _eq.run(limit);
    }

    /** Issue a demand access and return when it completes (drains). */
    void
    demand(TileId tile, Addr vaddr, bool is_write, int *completions,
           uint16_t size = 4)
    {
        mem::Access a;
        a.kind = mem::AccessKind::Demand;
        a.vaddr = vaddr;
        Cycles lat = 0;
        a.paddr = _tlbs[tile]->translate(_as, vaddr, lat);
        a.size = size;
        a.isWrite = is_write;
        a.onDone = [completions]() { ++*completions; };
        _priv[tile]->access(std::move(a));
    }

    EventQueue &eq() { return _eq; }
    noc::Mesh &mesh() { return *_mesh; }
    mem::AddressSpace &as() { return _as; }
    mem::NucaMap &nuca() { return *_nuca; }
    mem::PrivCache &priv(TileId t) { return *_priv[t]; }
    mem::L3Bank &l3(TileId t) { return *_l3[t]; }
    stream::SECore &seCore(TileId t) { return *_seCores[t]; }
    flt::SEL2 &seL2(TileId t) { return *_seL2[t]; }
    flt::SEL3 &seL3(TileId t) { return *_seL3[t]; }

  private:
    /** Routes exactly as TiledSystem::dispatch does. */
    void
    dispatch(TileId tile, const noc::MsgPtr &msg)
    {
        if (auto mm = std::dynamic_pointer_cast<mem::MemMsg>(msg)) {
            using mem::MemMsgType;
            switch (mm->type) {
              case MemMsgType::GetS:
              case MemMsgType::GetM:
              case MemMsgType::GetU:
              case MemMsgType::PutS:
              case MemMsgType::PutM:
              case MemMsgType::InvAck:
              case MemMsgType::FwdAck:
              case MemMsgType::FwdMiss:
              case MemMsgType::MemData:
                _l3[tile]->recvMsg(mm);
                return;
              case MemMsgType::MemRead:
              case MemMsgType::MemWrite:
                sf_assert(_memCtrls[tile], "memory message at non-corner");
                _memCtrls[tile]->recvMsg(mm);
                return;
              case MemMsgType::FwdGetS:
              case MemMsgType::FwdGetM:
              case MemMsgType::FwdGetU:
              case MemMsgType::Inv:
              case MemMsgType::PutAck:
              case MemMsgType::DataS:
              case MemMsgType::DataE:
              case MemMsgType::DataM:
              case MemMsgType::DataU:
                _priv[tile]->recvMsg(mm);
                return;
            }
            panic("unroutable MemMsgType %d on tile %d", (int)mm->type,
                  tile);
        }
        if (auto c = std::dynamic_pointer_cast<flt::StreamFloatMsg>(msg)) {
            sf_assert(_seL3[tile], "stream config at non-SF tile");
            _seL3[tile]->recvConfig(c);
            return;
        }
        if (auto c = std::dynamic_pointer_cast<flt::StreamCreditMsg>(msg)) {
            _seL3[tile]->recvCredit(c);
            return;
        }
        if (auto c = std::dynamic_pointer_cast<flt::StreamEndMsg>(msg)) {
            _seL3[tile]->recvEnd(c);
            return;
        }
        if (auto c = std::dynamic_pointer_cast<flt::StreamAckMsg>(msg)) {
            sf_assert(_seL2[tile], "stream ack at non-SF tile");
            _seL2[tile]->recvFloatAck(c);
            return;
        }
        panic("unroutable message on tile %d", tile);
    }

    Options _opt;
    EventQueue _eq;
    mem::PhysMem _physMem;
    mem::AddressSpace _as;
    std::unique_ptr<noc::Mesh> _mesh;
    std::unique_ptr<mem::NucaMap> _nuca;
    std::vector<std::unique_ptr<mem::TlbHierarchy>> _tlbs;
    std::vector<std::unique_ptr<mem::PrivCache>> _priv;
    std::vector<std::unique_ptr<mem::L3Bank>> _l3;
    std::vector<std::unique_ptr<mem::MemCtrl>> _memCtrls;
    std::vector<std::unique_ptr<stream::SECore>> _seCores;
    std::vector<std::unique_ptr<flt::SEL2>> _seL2;
    std::vector<std::unique_ptr<flt::SEL3>> _seL3;
};

} // namespace test
} // namespace sf

#endif // SF_TESTS_COMMON_TEST_FABRIC_HH
