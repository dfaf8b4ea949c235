/**
 * @file
 * Memory controller: the NoC endpoint at a corner tile that services
 * MemRead / MemWrite from L3 banks through a DRAM channel.
 */

#ifndef SF_MEM_MEM_CTRL_HH
#define SF_MEM_MEM_CTRL_HH

#include "mem/dram.hh"
#include "mem/mem_msg.hh"
#include "noc/mesh.hh"
#include "sim/debug.hh"
#include "sim/record_pool.hh"
#include "sim/sim_object.hh"
#include "verify/data_plane.hh"

namespace sf {
namespace mem {

/** One controller + channel pair at a mesh corner. */
class MemCtrl : public SimObject
{
  public:
    MemCtrl(const std::string &name, EventQueue &eq, TileId tile,
            const DramConfig &cfg, noc::Mesh &mesh)
        : SimObject(name, eq), _tile(tile), _mesh(mesh),
          _channel(name + ".dram", eq, cfg)
    {}

    void
    recvMsg(const MemMsgPtr &msg)
    {
        if (msg->type == MemMsgType::MemWrite) {
            SF_DPRINTF(DRAM, "write %llx from tile %d",
                       (unsigned long long)msg->lineAddr, (int)msg->src);
            if (_verify)
                _verify->dramWrite(msg->lineAddr, msg->vdata);
            _channel.access(true, nullptr);
            return;
        }
        sf_assert(msg->type == MemMsgType::MemRead,
                  "MemCtrl got %s", memMsgName(msg->type));
        SF_DPRINTF(DRAM, "read %llx for tile %d (requester %d)",
                   (unsigned long long)msg->lineAddr, (int)msg->src,
                   (int)msg->requester);
        // The request waits in a pool record, so the completion
        // captures only `[this, MemMsgPtr *]` (DESIGN.md §4l).
        MemMsgPtr *read = _reads.acquire(msg);
        _channel.access(false, [this, read] {
            MemMsgPtr req = _reads.take(read);
            _mesh.send(makeMemMsg(MemMsgType::MemData, req->lineAddr,
                                  _tile, req->src, req->requester));
        });
    }

    DramChannel &channel() { return _channel; }

    /** Attach the --verify data plane (null = verify off). */
    void setVerify(verify::DataPlane *v) { _verify = v; }

  private:
    TileId _tile;
    noc::Mesh &_mesh;
    DramChannel _channel;
    /** Reads waiting for the channel. */
    sim::RecordPool<MemMsgPtr> _reads;
    verify::DataPlane *_verify = nullptr;
};

} // namespace mem
} // namespace sf

#endif // SF_MEM_MEM_CTRL_HH
