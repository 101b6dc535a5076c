#include "noc/packet.hh"

#include "common/log.hh"

namespace cais
{

VcClass
defaultVcClass(PacketType t)
{
    switch (t) {
      case PacketType::readReq:
      case PacketType::caisLoadReq:
      case PacketType::multimemLdReduceReq:
        return VcClass::request;
      case PacketType::readResp:
      case PacketType::caisLoadResp:
      case PacketType::multimemLdReduceResp:
        return VcClass::response;
      case PacketType::writeReq:
      case PacketType::caisRedReq:
      case PacketType::caisMergedWrite:
        return VcClass::reduction;
      case PacketType::multimemSt:
        return VcClass::multicast;
      case PacketType::groupSyncReq:
      case PacketType::groupSyncRelease:
        return VcClass::sync;
      case PacketType::writeAck:
      case PacketType::throttleHint:
        return VcClass::control;
      default:
        panic("bad packet type");
    }
}

const char *
packetTypeName(PacketType t)
{
    switch (t) {
      case PacketType::readReq: return "readReq";
      case PacketType::readResp: return "readResp";
      case PacketType::writeReq: return "writeReq";
      case PacketType::writeAck: return "writeAck";
      case PacketType::multimemSt: return "multimem.st";
      case PacketType::multimemLdReduceReq: return "multimem.ld_reduce.req";
      case PacketType::multimemLdReduceResp:
        return "multimem.ld_reduce.resp";
      case PacketType::caisLoadReq: return "cais.load.req";
      case PacketType::caisLoadResp: return "cais.load.resp";
      case PacketType::caisRedReq: return "cais.red.req";
      case PacketType::caisMergedWrite: return "cais.merged.write";
      case PacketType::groupSyncReq: return "sync.req";
      case PacketType::groupSyncRelease: return "sync.release";
      case PacketType::throttleHint: return "throttle.hint";
      default: return "?";
    }
}

VcClass
policedVc(VcClass vc, bool unified_data_vc)
{
    if (!unified_data_vc)
        return vc;
    if (vc == VcClass::response || vc == VcClass::multicast ||
        vc == VcClass::reduction)
        return VcClass::reduction;
    return vc;
}

Packet
makePacket(PacketIdAllocator &ids, PacketType t, int src, int dst)
{
    Packet p;
    p.id = ids.next();
    p.type = t;
    p.vc = defaultVcClass(t);
    p.src = src;
    p.dst = dst;
    return p;
}

} // namespace cais
