#include "switchcompute/switch_compute.hh"

#include "common/log.hh"

namespace cais
{

SwitchComputeComplex::SwitchComputeComplex(SwitchChip &sw_,
                                           const InSwitchParams &params)
    : sw(sw_), nvlsUnit(sw_, params.nvls, params.tier),
      mergeUnit(sw_, params.merge, params.tier),
      syncTable(sw_, params.tier)
{
    sw.setComputeHandler(this);
}

bool
SwitchComputeComplex::wants(const Packet &pkt) const
{
    switch (pkt.type) {
      case PacketType::multimemSt:
      case PacketType::multimemLdReduceReq:
      case PacketType::caisLoadReq:
      case PacketType::caisRedReq:
      case PacketType::groupSyncReq:
        return true;
      case PacketType::readResp:
      case PacketType::caisLoadResp:
      case PacketType::multimemLdReduceResp:
      case PacketType::groupSyncRelease:
        // Responses addressed to this switch belong to a unit fetch or
        // a tier exchange; anything else is forwarded normally.
        return pkt.dst == sw.nodeId();
      default:
        return false;
    }
}

void
SwitchComputeComplex::handlePacket(Packet &&pkt)
{
    switch (pkt.type) {
      case PacketType::multimemSt:
        nvlsUnit.handleMultimemSt(std::move(pkt));
        break;
      case PacketType::multimemLdReduceReq:
        nvlsUnit.handleLdReduceReq(std::move(pkt));
        break;
      case PacketType::caisLoadReq:
        mergeUnit.handleLoadReq(std::move(pkt));
        break;
      case PacketType::caisRedReq:
        mergeUnit.handleRedReq(std::move(pkt));
        break;
      case PacketType::groupSyncReq:
        syncTable.handleSyncReq(std::move(pkt));
        break;
      case PacketType::readResp: {
        std::uint64_t tag = pkt.cookie & ~cookieIdMask;
        if (tag == cookieTagMerge)
            mergeUnit.handleReadResp(std::move(pkt));
        else if (tag == cookieTagNvls)
            nvlsUnit.handleReadResp(std::move(pkt));
        else
            panic("switch read response with unknown cookie tag");
        break;
      }
      case PacketType::caisLoadResp:
        // Spine's response to a leaf proxy fetch (merge-tagged).
        mergeUnit.handleReadResp(std::move(pkt));
        break;
      case PacketType::multimemLdReduceResp:
        nvlsUnit.handleLdReduceResp(std::move(pkt));
        break;
      case PacketType::groupSyncRelease:
        syncTable.handleRelease(std::move(pkt));
        break;
      default:
        panic("switch compute cannot handle packet type %s",
              packetTypeName(pkt.type));
    }
}

} // namespace cais
