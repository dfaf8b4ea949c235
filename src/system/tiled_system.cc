#include "system/tiled_system.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <unordered_map>

#include "flt/stream_msg.hh"
#include "sim/logging.hh"
#include "sim/stream_trace.hh"

namespace sf {
namespace sys {

namespace {

/** The fault-injection class of a stream packet. */
FaultClass
faultClassOf(flt::StreamMsgKind kind)
{
    switch (kind) {
      case flt::StreamMsgKind::Float:
        return FaultClass::FloatRequest;
      case flt::StreamMsgKind::Credit:
        return FaultClass::CreditGrant;
      case flt::StreamMsgKind::End:
        return FaultClass::StreamEnd;
      case flt::StreamMsgKind::Ack:
        return FaultClass::StreamAck;
    }
    panic("unknown stream packet kind %d", (int)kind);
}

} // namespace

TiledSystem::TiledSystem(const SystemConfig &cfg) : _cfg(cfg)
{
    // Structural faults reshape the machine itself, so they apply
    // before any tile is built.
    if (_cfg.faults.overflowEntries > 0) {
        _cfg.sel3.maxStreams =
            std::min(_cfg.sel3.maxStreams, _cfg.faults.overflowEntries);
    }
    if (_cfg.faults.noRetry)
        _cfg.sel2.retryEnabled = false;

    // perfbench still sets the worker count of the deleted
    // tile-parallel engine; everything runs in one execution context.
    if (_cfg.threads > 1)
        warn_once("SystemConfig::threads=%d ignored: the simulator runs "
                  "one execution context",
                  _cfg.threads);

    _as = std::make_unique<mem::AddressSpace>(0, _physMem);
    if (_cfg.verify) {
        _verify = std::make_unique<verify::DataPlane>(*_as,
                                                      _cfg.numTiles());
    }
    if (_cfg.profile)
        _prof = std::make_unique<prof::Profiler>();

    noc::MeshConfig ncfg = _cfg.noc;
    ncfg.nx = _cfg.nx;
    ncfg.ny = _cfg.ny;
    _mesh = std::make_unique<noc::Mesh>(_eq, ncfg);
    if (_prof)
        _mesh->setProfiler(_prof.get());
    _nuca = std::make_unique<mem::NucaMap>(_cfg.nx, _cfg.ny,
                                           _cfg.nucaInterleave);
    _barrier = std::make_unique<cpu::BarrierController>(
        _eq, _cfg.numTiles());
    buildTiles();
    setupRobustness();
}

TiledSystem::~TiledSystem()
{
    for (int id : _diagHooks)
        removeDiagnosticHook(id);
}

void
TiledSystem::buildTiles()
{
    int n = _cfg.numTiles();
    const MachineSpec &spec = machineSpec(_cfg.machine);

    _tlbs.resize(n);
    _priv.resize(n);
    _l3.resize(n);
    _memCtrls.resize(n);
    _seCores.resize(n);
    _seL2.resize(n);
    _seL3.resize(n);
    _l1Pf.resize(n);
    _l2Pf.resize(n);
    _cores.resize(n);
    if (_cfg.traceStreams)
        _streamLogs.resize(2 * n);

    for (TileId t = 0; t < n; ++t) {
        std::string tn = "tile" + std::to_string(t);
        // L1 TLB 64/8w; L2 TLB 2k/16w, 8-cycle; ~80-cycle walk.
        _tlbs[t] = std::make_unique<mem::TlbHierarchy>(64, 8, 2048, 16,
                                                       8, 80);
        _priv[t] = std::make_unique<mem::PrivCache>(
            tn + ".priv", _eq, t, _cfg.priv, *_mesh, *_nuca);
        _l3[t] = std::make_unique<mem::L3Bank>(tn + ".l3", _eq, t,
                                               _cfg.l3, *_mesh, *_nuca);
        if (_prof) {
            _priv[t]->setProfiler(_prof.get());
            _l3[t]->setProfiler(_prof.get());
        }

        if (_verify) {
            _priv[t]->setVerify(_verify.get());
            _l3[t]->setVerify(_verify.get());
            if (!_cfg.verifyBug.empty())
                _l3[t]->setVerifyBug(_cfg.verifyBug);
            _verify->addL2(t, &_priv[t]->l2Array());
            _verify->addL3(&_l3[t]->array());
            // Parked delayed dirty evictions hold the only current
            // image of their line while parked.
            _verify->addDirtyScan([p = _priv[t].get()](Addr line) {
                verify::LinePtr found;
                p->forEachDelayedEviction([&](const mem::CacheLine &l) {
                    if (l.tag == line && l.vdata)
                        found = l.vdata;
                });
                return found;
            });
        }

        if (spec.streams) {
            _seCores[t] = std::make_unique<stream::SECore>(
                tn + ".se", _eq, t, _cfg.seCore, *_priv[t], *_tlbs[t],
                *_as);
            _priv[t]->setStreamReuseHook(
                [se = _seCores[t].get()](StreamId sid) {
                    se->notifyStreamReuse(sid);
                });
            if (_verify)
                _seCores[t]->setVerify(_verify.get());
            if (_prof)
                _seCores[t]->setProfiler(_prof.get());
            if (_cfg.traceStreams)
                _seCores[t]->setStreamLog(&_streamLogs[2 * t]);
        }
        if (spec.floats) {
            _seL2[t] = std::make_unique<flt::SEL2>(
                tn + ".sel2", _eq, t, _cfg.sel2, *_mesh, *_nuca,
                *_priv[t], *_tlbs[t], *_as, *_seCores[t]);
            _seCores[t]->setFloatController(_seL2[t].get());
            if (_verify)
                _seL2[t]->setVerify(_verify.get());
            if (_prof)
                _seL2[t]->setProfiler(_prof.get());
            _seL3[t] = std::make_unique<flt::SEL3>(
                tn + ".sel3", _eq, t, _cfg.sel3, *_mesh, *_nuca,
                *_l3[t], *_as);
            if (_cfg.traceStreams)
                _seL3[t]->setStreamLog(&_streamLogs[2 * t + 1]);
        }

        if (spec.l1Prefetcher == L1Prefetcher::Stride) {
            prefetch::StrideConfig l1c;
            l1c.degree = 8;
            l1c.fillLevel = 1;
            _l1Pf[t] = std::make_unique<prefetch::StridePrefetcher>(
                *_priv[t], l1c);
        } else if (spec.l1Prefetcher == L1Prefetcher::Bingo) {
            _l1Pf[t] = std::make_unique<prefetch::BingoPrefetcher>(
                *_priv[t], prefetch::BingoConfig());
        }
        if (_l1Pf[t]) {
            prefetch::StrideConfig l2c;
            l2c.degree = 16;
            l2c.fillLevel = 2;
            _l2Pf[t] = std::make_unique<prefetch::StridePrefetcher>(
                *_priv[t], l2c);
        }
        _priv[t]->setPrefetchers(_l1Pf[t].get(), _l2Pf[t].get());
        if (spec.bulk)
            _priv[t]->setBulkPrefetch(true);

        // Memory controllers live at the mesh corners.
        const auto &ctrls = _nuca->memCtrls();
        if (std::find(ctrls.begin(), ctrls.end(), t) != ctrls.end()) {
            _memCtrls[t] = std::make_unique<mem::MemCtrl>(
                tn + ".mc", _eq, t, _cfg.dram, *_mesh);
            if (_verify)
                _memCtrls[t]->setVerify(_verify.get());
        }

        _mesh->bindSink(t, [this, t](const noc::MsgPtr &msg) {
            dispatch(t, msg);
        });
    }
}

void
TiledSystem::dispatch(TileId tile, const noc::MsgPtr &msg)
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
    if (auto sm = std::dynamic_pointer_cast<flt::StreamMsg>(msg)) {
        using flt::StreamMsgKind;
        switch (sm->kind) {
          case StreamMsgKind::Float:
            sf_assert(_seL3[tile], "stream config at non-SF tile");
            _seL3[tile]->recvConfig(
                std::static_pointer_cast<flt::StreamFloatMsg>(sm));
            return;
          case StreamMsgKind::Credit:
            sf_assert(_seL3[tile], "stream credit at non-SF tile");
            _seL3[tile]->recvCredit(
                std::static_pointer_cast<flt::StreamCreditMsg>(sm));
            return;
          case StreamMsgKind::End:
            sf_assert(_seL3[tile], "stream end at non-SF tile");
            _seL3[tile]->recvEnd(
                std::static_pointer_cast<flt::StreamEndMsg>(sm));
            return;
          case StreamMsgKind::Ack:
            sf_assert(_seL2[tile], "stream ack at non-SF tile");
            _seL2[tile]->recvFloatAck(
                std::static_pointer_cast<flt::StreamAckMsg>(sm));
            return;
        }
    }
    panic("unroutable message on tile %d", tile);
}

SimResults
TiledSystem::run(const std::vector<std::shared_ptr<isa::OpSource>> &threads)
{
    sf_assert(static_cast<int>(threads.size()) == _cfg.numTiles(),
              "need one op source per tile (%zu vs %d)", threads.size(),
              _cfg.numTiles());
    _threads = threads;
    _coresDone = 0;

    for (TileId t = 0; t < _cfg.numTiles(); ++t) {
        std::string cn = "tile" + std::to_string(t) + ".core";
        _cores[t] = std::make_unique<cpu::Core>(
            cn, _eq, t, _cfg.core, *_priv[t],
            *_tlbs[t], *_as, _barrier.get(), _threads[t].get());
        if (_seCores[t]) {
            _cores[t]->setStreamEngine(_seCores[t].get());
            _seCores[t]->setWakeHook(
                [c = _cores[t].get()]() { c->wake(); });
        }
        if (_verify)
            _cores[t]->setVerify(_verify.get());
        if (_prof)
            _cores[t]->setProfiler(_prof.get());
        // The run ends with the tick in which the last core finishes.
        _cores[t]->onDone = [this]() {
            if (++_coresDone == _cfg.numTiles())
                _eq.endAfterCurTick();
        };
    }
    for (auto &c : _cores)
        c->start();

    if (_cfg.samplingInterval > 0)
        startSampler();
    if (_checker)
        _checker->start();
    if (_watchdog)
        _watchdog->start();

    bool hit_limit = false;
    // sflint: allow(D2, host-seconds stat only; excluded from det.json)
    auto host_start = std::chrono::steady_clock::now();
    _eq.run(_cfg.maxCycles);
    if (_coresDone < _cfg.numTiles()) {
        if (_eq.empty()) {
            panic("deadlock: %d/%d cores done, no pending events",
                  _coresDone, _cfg.numTiles());
        }
        hit_limit = true;
        warn("cycle limit reached (%llu)",
             (unsigned long long)_cfg.maxCycles);
        // A core parked on stores stands for one that polls every
        // cycle, so the run's last tick is the limit (DESIGN.md §4k).
        bool parked = false;
        for (auto &c : _cores)
            parked |= c->parkedOnStores();
        if (parked) {
            _eq.schedule(
                _cfg.maxCycles,
                [this]() {
                    for (auto &c : _cores)
                        c->settle();
                },
                EventPriority::Watch);
            _eq.run(_cfg.maxCycles);
        }
    }
    _hostSeconds = std::chrono::duration<double>(
                       // sflint: allow(D2, host-seconds stat only)
                       std::chrono::steady_clock::now() - host_start)
                       .count();

    if (_watchdog)
        _watchdog->stop();
    if (_checker)
        _checker->stop();
    if (_sampler)
        _sampler->stop();

    if (!hit_limit && _cfg.checkLevel > CheckLevel::Off)
        drainAndCheck();

    if (_prof) {
        // Close the top-down accounts over exactly [0, now) and check
        // the exact-sum invariant: every simulated cycle of every
        // accounted component is in exactly one bucket.
        auto violations = _prof->finalizeTopDown(_eq.curTick());
        if (!violations.empty()) {
            for (const auto &v : violations)
                std::fprintf(stderr, "profile: %s\n", v.c_str());
            fatalCode(ExitCode::InvariantViolation,
                      "top-down cycle accounting inconsistent for %zu "
                      "component(s), first: %s",
                      violations.size(), violations.front().c_str());
        }
    }

    return collect(hit_limit);
}

void
TiledSystem::setupRobustness()
{
    // Message-level fault injection: classify stream control messages
    // at the mesh injection point. The mesh itself stays protocol-
    // agnostic; only this layer knows the message types.
    if (_cfg.faults.messageFaults()) {
        _faults = std::make_unique<FaultInjector>(_cfg.faults);
        _mesh->setSendInterceptor(
            [this](const noc::MsgPtr &msg, Cycles &delay) {
                using noc::Mesh;
                auto sm = std::dynamic_pointer_cast<flt::StreamMsg>(msg);
                if (!sm)
                    return Mesh::SendAction::Deliver;
                switch (_faults->decide(faultClassOf(sm->kind))) {
                  case FaultAction::Drop:
                    return Mesh::SendAction::Drop;
                  case FaultAction::Delay:
                    delay = _faults->delayCycles();
                    return Mesh::SendAction::Delay;
                  case FaultAction::Duplicate:
                    return Mesh::SendAction::Duplicate;
                  case FaultAction::None:
                    break;
                }
                return Mesh::SendAction::Deliver;
            });
        warn("fault injection active: %s", _cfg.faults.describe().c_str());
    }

    if (_cfg.checkLevel > CheckLevel::Off) {
        _checker = std::make_unique<Checker>(_eq, _cfg.checkLevel,
                                             _cfg.checkInterval);
        if (_cfg.checkLevel >= CheckLevel::Full)
            _mesh->setTrackInFlight(true);
        registerInvariantChecks();
    }

    if (_cfg.watchdogCycles > 0) {
        _watchdog = std::make_unique<Watchdog>(_eq, _cfg.watchdogCycles);
        _watchdog->addProbe("committedOps",
                            [this] { return collect(false).committedOps; });
        _watchdog->addProbe("nocFlitsInjected", [this] {
            const auto &t = _mesh->traffic();
            return t.flitsInjected[0] + t.flitsInjected[1] +
                   t.flitsInjected[2];
        });
        _watchdog->addProbe("streamElements", [this] {
            SimResults r = collect(false);
            return r.energyEvents.seCoreEvents +
                   r.energyEvents.seL2Events + r.energyEvents.seL3Events;
        });
    }

    registerDiagnostics();
}

void
TiledSystem::registerInvariantChecks()
{
    bool floats = machineFloats(_cfg.machine);

    // A floated stream generation lives at exactly one L3 bank (it is
    // either resident or in a migration message, never in two tables).
    // This holds even under message-level fault injection: the SE_L3
    // replay filter (the departure in each stream's SEL3::Record)
    // refuses configs/migrations at or behind the stream's departure
    // frontier, so a duplicated or retried config can be absorbed or
    // dropped but never plant a second residence.
    if (floats) {
        _checker->addCheck(
            "stream-residence", CheckLevel::Basic,
            [this](std::vector<std::string> &out) {
                std::unordered_map<GlobalStreamId,
                                   std::pair<uint32_t, int>> seen;
                for (auto &s3 : _seL3) {
                    if (!s3)
                        continue;
                    TileId bank = s3->tile();
                    s3->forEachResident(
                        [&](const GlobalStreamId &gsid, uint32_t gen,
                            uint64_t, uint64_t) {
                            auto it = seen.find(gsid);
                            if (it != seen.end() &&
                                it->second.first == gen) {
                                out.push_back(
                                    "stream (core " +
                                    std::to_string(gsid.core) + ", sid " +
                                    std::to_string(gsid.sid) + ") gen " +
                                    std::to_string(gen) +
                                    " resident at banks " +
                                    std::to_string(it->second.second) +
                                    " and " + std::to_string(bank));
                            }
                            seen[gsid] = {gen, bank};
                        });
                }
            });
    }

    // Each SE_L2 checks the §IV-A credit window of its own streams.
    if (floats) {
        _checker->addCheck(
            "sel2-credit-window", CheckLevel::Basic,
            [this](std::vector<std::string> &out) {
                for (auto &s2 : _seL2) {
                    if (s2)
                        s2->checkCreditWindow(out);
                }
            });

        // SE_L3 never issues past a member's credit horizon.
        _checker->addCheck(
            "sel3-issue-credit", CheckLevel::Basic,
            [this](std::vector<std::string> &out) {
                for (auto &s3 : _seL3) {
                    if (!s3)
                        continue;
                    s3->forEachResident(
                        [&](const GlobalStreamId &gsid, uint32_t gen,
                            uint64_t issue_pos, uint64_t credit_limit) {
                            if (issue_pos > credit_limit) {
                                out.push_back(
                                    "bank " + std::to_string(s3->tile()) +
                                    " stream (core " +
                                    std::to_string(gsid.core) + ", sid " +
                                    std::to_string(gsid.sid) + ") gen " +
                                    std::to_string(gen) + ": issuePos " +
                                    std::to_string(issue_pos) +
                                    " > creditLimit " +
                                    std::to_string(credit_limit));
                            }
                        });
                }
            });
    }

    // MESI: at most one private cache holds a line M/E, and any M/E
    // holder is the registered directory owner (unless a transaction
    // currently blocks the line, i.e. ownership is mid-transfer).
    _checker->addCheck(
        "mesi-single-owner", CheckLevel::Full,
        [this](std::vector<std::string> &out) {
            std::unordered_map<Addr, TileId> owners;
            for (TileId t = 0; t < _cfg.numTiles(); ++t) {
                _priv[t]->l2Array().forEachValid([&](mem::CacheLine &l) {
                    if (l.state != mem::LineState::Exclusive &&
                        l.state != mem::LineState::Modified)
                        return;
                    auto it = owners.find(l.tag);
                    if (it != owners.end()) {
                        char buf[96];
                        std::snprintf(buf, sizeof(buf),
                                      "line %llx owned M/E by tiles "
                                      "%d and %d",
                                      (unsigned long long)l.tag,
                                      it->second, t);
                        out.push_back(buf);
                    }
                    owners[l.tag] = t;
                    TileId home = _nuca->bankOf(l.tag);
                    if (_l3[home]->isLineBlocked(l.tag))
                        return;
                    mem::CacheLine *dir =
                        _l3[home]->array().probe(l.tag);
                    if (!dir || dir->owner != t) {
                        char buf[112];
                        std::snprintf(
                            buf, sizeof(buf),
                            "line %llx M/E at tile %d but directory "
                            "owner is %d",
                            (unsigned long long)l.tag, t,
                            dir ? dir->owner : invalidTile);
                        out.push_back(buf);
                    }
                });
            }
        });

    // NoC conservation: every injected packet is ejected at all its
    // destinations in bounded time. A packet older than this bound
    // means a sink lost it or a router wedged.
    _checker->addCheck(
        "noc-packet-age", CheckLevel::Full,
        [this](std::vector<std::string> &out) {
            if (!_mesh->trackInFlight())
                return;
            Tick oldest = _mesh->oldestInFlightTick();
            Tick now = _eq.curTick();
            const Tick maxAge = 500'000;
            if (oldest < now && now - oldest > maxAge) {
                char buf[96];
                std::snprintf(buf, sizeof(buf),
                              "packet in flight for %llu cycles "
                              "(injected at %llu)",
                              (unsigned long long)(now - oldest),
                              (unsigned long long)oldest);
                out.push_back(buf);
            }
        });
}

void
TiledSystem::registerDiagnostics()
{
    _diagHooks.push_back(addDiagnosticHook(
        "event-queue", [this](std::FILE *f) {
            std::fprintf(f,
                         "tick=%llu pending=%llu executed=%llu "
                         "coresDone=%d/%d\n",
                         (unsigned long long)_eq.curTick(),
                         (unsigned long long)_eq.numPending(),
                         (unsigned long long)_eq.numExecuted(),
                         _coresDone, _cfg.numTiles());
        }));
    if (_watchdog) {
        _diagHooks.push_back(addDiagnosticHook(
            "watchdog",
            [this](std::FILE *f) { _watchdog->debugDump(f); }));
    }
    if (_checker) {
        _diagHooks.push_back(addDiagnosticHook(
            "checker",
            [this](std::FILE *f) { _checker->debugDump(f); }));
    }
    if (_faults) {
        _diagHooks.push_back(addDiagnosticHook(
            "fault-injector",
            [this](std::FILE *f) { _faults->debugDump(f); }));
    }
    _diagHooks.push_back(addDiagnosticHook(
        "noc-in-flight", [this](std::FILE *f) {
            if (_mesh->trackInFlight())
                _mesh->debugDumpInFlight(f);
            else
                std::fprintf(f, "(tracking off)\n");
        }));
    _diagHooks.push_back(addDiagnosticHook(
        "tiles", [this](std::FILE *f) {
            for (TileId t = 0; t < _cfg.numTiles(); ++t) {
                std::fprintf(f, "[tile %d]\n", t);
                if (_cores[t])
                    _cores[t]->debugDump(f);
                _priv[t]->debugDump(f);
                _l3[t]->debugDump(f);
                if (_seCores[t])
                    _seCores[t]->debugDump(f);
                if (_seL2[t])
                    _seL2[t]->debugDump(f);
                if (_seL3[t])
                    _seL3[t]->debugDump(f);
            }
        }));
}

void
TiledSystem::drainAndCheck()
{
    // Let in-flight evictions and stream ends complete. Residual
    // streams re-arm their own scans, so bound the drain instead of
    // insisting on an empty queue.
    Tick limit = _eq.curTick() + 1'000'000 + _cfg.samplingInterval;
    _eq.run(limit);

    std::vector<std::string> residue;
    uint64_t pending = _eq.numPending();
    if (pending > 0) {
        residue.push_back("event queue not empty after drain (" +
                          std::to_string(pending) + " pending)");
    }
    for (TileId t = 0; t < _cfg.numTiles(); ++t) {
        std::string tn = "tile" + std::to_string(t);
        if (_priv[t]->mshrsInUse() > 0) {
            residue.push_back(tn + ": " +
                              std::to_string(_priv[t]->mshrsInUse()) +
                              " MSHR(s) still in use");
        }
        if (_priv[t]->mshrWaiters() > 0) {
            residue.push_back(tn + ": " +
                              std::to_string(_priv[t]->mshrWaiters()) +
                              " access(es) waiting on MSHRs");
        }
        if (_priv[t]->delayedEvictions() > 0) {
            residue.push_back(
                tn + ": " + std::to_string(_priv[t]->delayedEvictions()) +
                " delayed eviction(s) never released");
        }
        if (_l3[t]->numTxns() > 0) {
            residue.push_back(tn + ": " +
                              std::to_string(_l3[t]->numTxns()) +
                              " open directory transaction(s)");
        }
        if (_seL2[t] && _seL2[t]->numFloated() > 0) {
            residue.push_back(tn + ": " +
                              std::to_string(_seL2[t]->numFloated()) +
                              " stream(s) still floated at SE_L2");
        }
        if (_seL3[t] && _seL3[t]->numStreams() > 0) {
            residue.push_back(tn + ": " +
                              std::to_string(_seL3[t]->numStreams()) +
                              " stream context(s) resident at SE_L3");
        }
    }
    if (_mesh->trackInFlight() && _mesh->inFlightCount() > 0) {
        residue.push_back(std::to_string(_mesh->inFlightCount()) +
                          " packet(s) still in flight on the NoC");
    }
    if (!residue.empty()) {
        for (const auto &r : residue)
            std::fprintf(stderr, "drain residue: %s\n", r.c_str());
        fatalCode(ExitCode::DrainFailure,
                  "simulation finished but %zu component(s) failed to "
                  "drain, first: %s",
                  residue.size(), residue.front().c_str());
    }

    // With the system quiesced the invariants must hold exactly.
    _checker->runAll("drain", ExitCode::DrainFailure);
}

void
TiledSystem::startSampler()
{
    _sampler = std::make_unique<stats::IntervalSampler>(
        "sampler", _eq, _cfg.samplingInterval);

    // The series read the run's totals from collect(), as SimResults
    // does; only the mesh's own counters are read directly.
    using Total = uint64_t (*)(const SimResults &);
    auto total = [this](Total field) {
        return [this, field]() { return double(field(collect(false))); };
    };
    _sampler->addRatio(
        "ipc", total([](const SimResults &r) { return r.committedOps; }),
        [this]() { return double(_eq.curTick()); });
    _sampler->addRatio(
        "l2HitRate", total([](const SimResults &r) { return r.l2Hits; }),
        total([](const SimResults &r) { return r.l2Hits + r.l2Misses; }));
    _sampler->addRatio(
        "l3HitRate", total([](const SimResults &r) { return r.l3Hits; }),
        total([](const SimResults &r) { return r.l3Hits + r.l3Misses; }));

    double live_links = double(_mesh->liveLinkCount());
    _sampler->addRatio(
        "nocLinkUtilization",
        [this]() { return double(_mesh->traffic().linkBusyCycles); },
        [this, live_links]() {
            return double(_eq.curTick()) * live_links;
        });

    if (machineFloats(_cfg.machine)) {
        _sampler->addRatio(
            "floatedFetchFraction",
            total([](const SimResults &r) {
                return r.floatedFetchesIssued;
            }),
            total([](const SimResults &r) { return r.fetchesIssued; }));
    }

    // NoC heatmap matrices, profile runs only: the plain stats.json
    // "series" section never includes matrices, so registering them
    // here cannot perturb non-profiled dumps.
    if (_prof) {
        int n = _cfg.numTiles();
        _sampler->addMatrix(
            "nocLinkBusy", n, 4, [this](std::vector<uint64_t> &out) {
                for (TileId t = 0; t < _cfg.numTiles(); ++t)
                    for (int d = 0; d < 4; ++d)
                        out[size_t(t) * 4 + d] =
                            _mesh->linkBusyCycles(t, d);
            });
        _sampler->addMatrix(
            "nocLinkQueue", n, 4, [this](std::vector<uint64_t> &out) {
                for (TileId t = 0; t < _cfg.numTiles(); ++t)
                    for (int d = 0; d < 4; ++d)
                        out[size_t(t) * 4 + d] =
                            _mesh->linkQueueCycles(t, d);
            });
        _sampler->addMatrix(
            "nocRouterFlits", _cfg.ny, _cfg.nx,
            [this](std::vector<uint64_t> &out) {
                for (TileId t = 0; t < _cfg.numTiles(); ++t)
                    out[t] = _mesh->routerFlits(t);
            });
    }

    _sampler->start();
}

void
TiledSystem::buildStatRegistry(stats::StatRegistry &reg) const
{
    for (TileId t = 0; t < _cfg.numTiles(); ++t) {
        std::string tn = "tile" + std::to_string(t);
        if (_cores[t])
            _cores[t]->stats().regStats(reg.group(tn + ".core"));
        _priv[t]->stats().regStats(reg.group(tn + ".priv"));
        _l3[t]->stats().regStats(reg.group(tn + ".l3"));
        if (_seCores[t])
            _seCores[t]->stats().regStats(reg.group(tn + ".seCore"));
        if (_seL2[t])
            _seL2[t]->stats().regStats(reg.group(tn + ".seL2"));
        if (_seL3[t])
            _seL3[t]->stats().regStats(reg.group(tn + ".seL3"));
    }

    if (_faults)
        _faults->regStats(reg.group("faults"));
    if (_checker)
        _checker->regStats(reg.group("checker"));
    if (_prof)
        _prof->registerStats(reg);

    // The event kernel's counts measure how the host simulated, not
    // what it simulated: they change whenever the engine does less work
    // for the same result. Host throughput is wall-clock, hence
    // nondeterministic. Both stay out of default dumps so those remain
    // byte-comparable across engine changes (opt in via
    // includeHostStats).
    if (_hostStatsInJson) {
        stats::StatGroup &eg = reg.group("sim.eventq");
        const EventQueue *eq = &_eq;
        eg.regFormula("executed",
                      [eq]() { return double(eq->numExecuted()); });
        eg.regFormula("pending",
                      [eq]() { return double(eq->numPending()); });
        eg.regFormula("arenaCapacity",
                      [eq]() { return double(eq->arenaCapacity()); });

        stats::StatGroup &hg = reg.group("host");
        hg.regFormula("seconds", [this]() { return _hostSeconds; });
        hg.regFormula("eventsPerSec", [this, eq]() {
            return _hostSeconds > 0.0
                       ? double(eq->numExecuted()) / _hostSeconds
                       : 0.0;
        });
    }

    stats::StatGroup &mg = reg.group("mesh");
    const noc::Mesh *mesh = _mesh.get();
    mg.regFormula("flitHops.control", [mesh]() {
        return double(mesh->traffic().flitHops[0]);
    });
    mg.regFormula("flitHops.data", [mesh]() {
        return double(mesh->traffic().flitHops[1]);
    });
    mg.regFormula("flitHops.streamMgmt", [mesh]() {
        return double(mesh->traffic().flitHops[2]);
    });
    mg.regFormula("utilization",
                  [mesh]() { return mesh->linkUtilization(); });
    mg.regHistogram("packetHops", &mesh->packetHops());
}

void
TiledSystem::dumpStats(std::ostream &os) const
{
    stats::StatRegistry reg;
    buildStatRegistry(reg);
    reg.dump(os);
}

void
TiledSystem::dumpStatsJson(std::ostream &os, const SimResults &r) const
{
    stats::StatRegistry reg;
    buildStatRegistry(reg);

    json::Writer w(os);
    w.beginObject();
    w.kv("schema", stats::jsonSchemaName);
    w.kv("schemaVersion", stats::jsonSchemaVersion);

    w.beginObject("config");
    w.kv("machine", machineName(_cfg.machine));
    w.kv("core", _cfg.core.label);
    w.kv("nx", _cfg.nx);
    w.kv("ny", _cfg.ny);
    w.kv("samplingInterval", uint64_t(_cfg.samplingInterval));
    w.kv("maxCycles", uint64_t(_cfg.maxCycles));
    w.kv("checkLevel", checkLevelName(_cfg.checkLevel));
    w.kv("watchdogCycles", uint64_t(_cfg.watchdogCycles));
    w.kv("faults", _cfg.faults.enabled() ? _cfg.faults.describe()
                                         : std::string("none"));
    w.endObject();

    w.beginObject("results");
    w.kv("cycles", uint64_t(r.cycles));
    w.kv("hitCycleLimit", r.hitCycleLimit);
    w.kv("committedOps", r.committedOps);
    w.kv("ipc", r.ipc());
    w.kv("l1Hits", r.l1Hits);
    w.kv("l1Misses", r.l1Misses);
    w.kv("l2Hits", r.l2Hits);
    w.kv("l2Misses", r.l2Misses);
    w.kv("l2HitRate", r.l2HitRate);
    w.kv("l2Evictions", r.l2Evictions);
    w.kv("l2EvictionsUnreused", r.l2EvictionsUnreused);
    w.kv("l3Hits", r.l3Hits);
    w.kv("l3Misses", r.l3Misses);
    w.kv("l3HitRate", r.l3HitRate);
    w.beginArray("l3RequestsByClass");
    for (uint64_t v : r.l3RequestsByClass)
        w.value(v);
    w.endArray();
    w.kv("dramReads", r.dramReads);
    w.kv("dramWrites", r.dramWrites);
    w.kv("streamsFloated", r.streamsFloated);
    w.kv("streamsSunk", r.streamsSunk);
    w.kv("migrations", r.migrations);
    w.kv("confluenceMerges", r.confluenceMerges);
    w.kv("confluenceRequests", r.confluenceRequests);
    w.kv("creditMessages", r.creditMessages);
    w.kv("seL3LineRequests", r.seL3LineRequests);
    w.kv("seL3IndirectRequests", r.seL3IndirectRequests);
    w.kv("prefetchesIssued", r.prefetchesIssued);
    w.kv("prefetchesUseful", r.prefetchesUseful);
    w.beginObject("traffic");
    w.kv("flitsInjected", r.traffic.flitsInjected[0] +
                              r.traffic.flitsInjected[1] +
                              r.traffic.flitsInjected[2]);
    w.kv("flitHops", r.traffic.totalFlitHops());
    w.kv("linkBusyCycles", r.traffic.linkBusyCycles);
    w.endObject();
    w.kv("nocUtilization", r.nocUtilization);
    w.kv("energyNj", r.energyNj);
    w.endObject();

    reg.dumpJson(w);

    w.beginObject("series");
    if (_sampler) {
        w.kv("interval", uint64_t(_sampler->interval()));
        w.beginArray("ticks");
        for (Tick t : _sampler->ticks())
            w.value(uint64_t(t));
        w.endArray();
        w.beginObject("values");
        for (const auto &s : _sampler->series()) {
            w.beginArray(s.name);
            for (double v : s.values)
                w.value(v);
            w.endArray();
        }
        w.endObject();
    } else {
        w.kv("interval", uint64_t(0));
    }
    w.endObject();

    w.endObject();
    os << "\n";
}

void
TiledSystem::dumpProfileJson(std::ostream &os, const SimResults &r) const
{
    sf_assert(_prof, "dumpProfileJson requires cfg.profile");

    json::Writer w(os);
    w.beginObject();
    w.kv("schema", "sf-profile");
    w.kv("schemaVersion", 1);

    w.beginObject("config");
    w.kv("machine", machineName(_cfg.machine));
    w.kv("core", _cfg.core.label);
    w.kv("nx", _cfg.nx);
    w.kv("ny", _cfg.ny);
    w.kv("samplingInterval", uint64_t(_cfg.samplingInterval));
    w.endObject();

    w.kv("cycles", uint64_t(r.cycles));

    _prof->dumpJson(w);

    // NoC heatmaps: end-of-run totals always, per-interval delta
    // frames when the sampler ran (it registers the matrices only on
    // profile runs).
    w.beginObject("heatmaps");
    int n = _cfg.numTiles();
    auto totals = [&](const std::string &name, int rows, int cols,
                      const std::function<uint64_t(size_t)> &cell) {
        w.beginObject(name);
        w.kv("rows", rows);
        w.kv("cols", cols);
        w.beginArray("total");
        for (size_t c = 0; c < size_t(rows) * size_t(cols); ++c)
            w.value(cell(c));
        w.endArray();
        w.endObject();
    };
    totals("nocLinkBusy", n, 4, [this](size_t c) {
        return _mesh->linkBusyCycles(TileId(c / 4), int(c % 4));
    });
    totals("nocLinkQueue", n, 4, [this](size_t c) {
        return _mesh->linkQueueCycles(TileId(c / 4), int(c % 4));
    });
    totals("nocRouterFlits", _cfg.ny, _cfg.nx, [this](size_t c) {
        return _mesh->routerFlits(TileId(c));
    });
    w.beginObject("frames");
    if (_sampler) {
        w.kv("interval", uint64_t(_sampler->interval()));
        w.beginArray("ticks");
        for (Tick t : _sampler->ticks())
            w.value(uint64_t(t));
        w.endArray();
        w.beginObject("series");
        for (const auto &m : _sampler->matrices()) {
            w.beginArray(m.name);
            for (const auto &f : m.frames) {
                w.beginArray();
                for (uint64_t v : f)
                    w.value(v);
                w.endArray();
            }
            w.endArray();
        }
        w.endObject();
    } else {
        w.kv("interval", uint64_t(0));
    }
    w.endObject();
    w.endObject();

    w.endObject();
    os << "\n";
}

void
TiledSystem::dumpProfileSummaryJson(std::ostream &os) const
{
    sf_assert(_prof, "dumpProfileSummaryJson requires cfg.profile");
    json::Writer w(os);
    _prof->dumpSummaryJson(w);
    os << "\n";
}

void
TiledSystem::writeStreamTrace(std::ostream &os) const
{
    sf_assert(_cfg.traceStreams, "writeStreamTrace requires "
                                 "cfg.traceStreams");
    trace::writeChromeTrace(os, _streamLogs);
}

SimResults
TiledSystem::collect(bool hit_limit)
{
    SimResults r;
    r.hitCycleLimit = hit_limit;
    energy::EnergyEvents &ev = r.energyEvents;
    // Probes may ask before run() has built the cores.
    for (auto &c : _cores) {
        if (!c)
            continue;
        const cpu::CoreStats &cs = c->stats();
        r.cycles = std::max(r.cycles, cs.doneTick);
        r.committedOps += cs.committedOps;
        ev.intOps += cs.intOps;
        ev.fpOps += cs.fpOps;
        ev.memOps += cs.committedLoads + cs.committedStores +
                     cs.committedStreamLoads + cs.committedStreamStores;
    }
    if (hit_limit)
        r.cycles = _eq.curTick();

    r.traffic = _mesh->traffic();
    r.nocUtilization = _mesh->linkUtilization();

    for (TileId t = 0; t < _cfg.numTiles(); ++t) {
        const auto &ps = _priv[t]->stats();
        r.l1Hits += ps.l1Hits;
        r.l1Misses += ps.l1Misses;
        r.l2Hits += ps.l2Hits;
        r.l2Misses += ps.l2Misses;
        r.l2Evictions += ps.l2Evictions;
        r.l2EvictionsUnreused += ps.l2EvictionsUnreused;
        r.l2EvictionsUnreusedStream += ps.l2EvictionsUnreusedStream;
        r.unreusedDataFlits += ps.unreusedDataFlits;
        r.unreusedCtrlFlits += ps.unreusedCtrlFlits;
        r.prefetchesIssued += ps.prefetchesIssued;
        r.prefetchesUseful += ps.prefetchesUseful;

        const auto &ls = _l3[t]->stats();
        r.l3Hits += ls.hits;
        r.l3Misses += ls.misses;
        for (size_t k = 0; k < r.l3RequestsByClass.size(); ++k)
            r.l3RequestsByClass[k] += ls.requestsByClass[k];

        if (_memCtrls[t]) {
            r.dramReads += _memCtrls[t]->channel().reads;
            r.dramWrites += _memCtrls[t]->channel().writes;
        }
        if (_seCores[t]) {
            const auto &ss = _seCores[t]->stats();
            r.streamsFloated += ss.streamsFloated;
            r.streamsSunk += ss.streamsSunk;
            r.fetchesIssued += ss.fetchesIssued;
            r.floatedFetchesIssued += ss.floatedFetchesIssued;
            ev.seCoreEvents += ss.elementsConsumed;
        }
        if (_seL2[t]) {
            const auto &s2 = _seL2[t]->stats();
            r.creditMessages += s2.creditsSent;
            ev.seL2Events += s2.dataArrived;
        }
        if (_seL3[t]) {
            const auto &s3 = _seL3[t]->stats();
            r.migrations += s3.migrationsOut;
            r.confluenceMerges += s3.confluenceMerges;
            r.confluenceRequests += s3.confluenceRequests;
            r.seL3LineRequests += s3.lineRequestsIssued;
            r.seL3IndirectRequests += s3.indirectRequestsIssued;
            ev.seL3Events += s3.lineRequestsIssued +
                             s3.indirectRequestsIssued;
        }
        ev.tlbAccesses += _tlbs[t]->l1().hits + _tlbs[t]->l1().misses;
    }

    uint64_t total_l2 = r.l2Hits + r.l2Misses;
    r.l2HitRate = total_l2 ? double(r.l2Hits) / total_l2 : 0.0;
    uint64_t total_l3 = r.l3Hits + r.l3Misses;
    r.l3HitRate = total_l3 ? double(r.l3Hits) / total_l3 : 0.0;

    // Energy.
    ev.l1Accesses = r.l1Hits + r.l1Misses;
    ev.l2Accesses = total_l2;
    ev.l3Accesses = total_l3;
    ev.dramLines = r.dramReads + r.dramWrites;
    ev.flitHops = r.traffic.totalFlitHops();
    ev.cycles = r.cycles;
    ev.numTiles = _cfg.numTiles();
    ev.coreLabel = _cfg.core.label;
    ev.streamHardware = machineUsesStreams(_cfg.machine);
    r.energy = energy::computeEnergy(ev);
    r.energyNj = r.energy.total();

    for (const trace::StreamLog &log : _streamLogs)
        r.streamTraceEvents += log.size();

    r.hostSeconds = _hostSeconds;
    r.eventsExecuted = _eq.numExecuted();
    return r;
}

} // namespace sys
} // namespace sf
