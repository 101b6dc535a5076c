#include "switchcompute/nvls_unit.hh"

#include "analysis/causal_profile.hh"
#include "common/log.hh"

namespace cais
{

NvlsUnit::NvlsUnit(SwitchChip &sw_, const NvlsParams &params,
                   const TierInfo &tier_)
    : sw(sw_), p(params), tier(tier_)
{
}

void
NvlsUnit::replicateLocal(const Packet &pkt)
{
    int first = tier.firstLocalGpu;
    int last = first + tier.localGpus(sw);
    for (GpuId g = first; g < last; ++g) {
        if (g == pkt.issuerGpu)
            continue;
        Packet w = sw.makePacket(PacketType::writeReq, g);
        w.addr = pkt.addr;
        w.payloadBytes = pkt.payloadBytes;
        w.padBytes = pkt.padBytes;
        w.issuerGpu = pkt.issuerGpu;
        w.kernel = pkt.kernel;
        w.tb = pkt.tb;
        w.vc = VcClass::multicast;
        sw.sendToGpu(std::move(w));
    }
}

void
NvlsUnit::handleMultimemSt(Packet &&pkt)
{
    if (tier.isSpine()) {
        // Spine leg: fan the store out to every other group's leaf.
        int issuer_group = tier.groupOfGpu(pkt.issuerGpu, sw);
        for (int grp = 0; grp < tier.numGroups; ++grp) {
            if (grp == issuer_group)
                continue;
            Packet w = sw.makePacket(PacketType::multimemSt,
                                     tier.leafNodeForAddr(grp, pkt.addr));
            w.addr = pkt.addr;
            w.payloadBytes = pkt.payloadBytes;
            w.padBytes = pkt.padBytes;
            w.issuerGpu = pkt.issuerGpu;
            w.kernel = pkt.kernel;
            w.tb = pkt.tb;
            w.tierHop = 2;
            sw.sendToGpu(std::move(w));
        }
        stMulticasts.inc();
        return;
    }

    // Replicate to every local GPU except the issuer (its local copy
    // was written by the store itself; downstream-leg stores have no
    // local issuer, so all local replicas are written).
    replicateLocal(pkt);
    stMulticasts.inc();

    if (pkt.tierHop != 0)
        return; // downstream leg: the origin leaf already acked

    if (tier.isLeaf() && tier.numGroups > 1) {
        Packet up = sw.makePacket(PacketType::multimemSt,
                                  tier.spineNodeForAddr(pkt.addr));
        up.addr = pkt.addr;
        up.payloadBytes = pkt.payloadBytes;
        up.padBytes = pkt.padBytes;
        up.issuerGpu = pkt.issuerGpu;
        up.kernel = pkt.kernel;
        up.tb = pkt.tb;
        up.tierHop = 1;
        sw.sendToGpu(std::move(up));
    }

    // Posted-store ack so the issuing hub can track drain.
    Packet ack = sw.makePacket(PacketType::writeAck, pkt.issuerGpu);
    ack.addr = pkt.addr;
    ack.cookie = pkt.cookie;
    ack.kernel = pkt.kernel;
    ack.tb = pkt.tb;
    sw.sendToGpu(std::move(ack));
}

void
NvlsUnit::handleLdReduceReq(Packet &&pkt)
{
    std::uint64_t id = nextGatherId++;
    GatherSession &s = gathers[id];
    s.profStart = sw.eventQueue().now();
    s.addr = pkt.addr;
    s.bytes = pkt.reqBytes;
    s.pad = pkt.padResponse ? pkt.reqBytes / protocolPadDivisor : 0;
    s.hubCookie = pkt.cookie;
    s.kernel = pkt.kernel;
    s.tb = pkt.tb;

    if (tier.isSpine()) {
        // Gather one reduced partial from every other group's leaf.
        s.requester = pkt.src;
        int origin_group = tier.groupOfGpu(pkt.issuerGpu, sw);
        s.expected = tier.numGroups - 1;
        for (int grp = 0; grp < tier.numGroups; ++grp) {
            if (grp == origin_group)
                continue;
            Packet rd = sw.makePacket(PacketType::multimemLdReduceReq,
                                      tier.leafNodeForAddr(grp, pkt.addr));
            rd.addr = pkt.addr;
            rd.reqBytes = pkt.reqBytes;
            rd.padResponse = pkt.padResponse;
            rd.cookie = cookieTagNvls | id;
            rd.issuerGpu = pkt.issuerGpu;
            rd.kernel = pkt.kernel;
            rd.tierHop = 2;
            sw.sendToGpu(std::move(rd));
        }
        return;
    }

    bool origin = pkt.tierHop == 0;
    s.requester = origin ? static_cast<int>(pkt.issuerGpu) : pkt.src;

    if (tier.role == TierRole::flat) {
        s.expected = pkt.expected > 0 ? pkt.expected : sw.numGpus();
        // Fetch the replica from every participating GPU (including
        // the requester's own memory: the gather traverses the switch
        // for all of them, which is how the hardware behaves).
        for (GpuId g = 0; g < s.expected; ++g) {
            Packet rd = sw.makePacket(PacketType::readReq, g);
            rd.addr = pkt.addr;
            rd.reqBytes = pkt.reqBytes;
            rd.padResponse = pkt.padResponse;
            rd.cookie = cookieTagNvls | id;
            rd.kernel = pkt.kernel;
            sw.sendToGpu(std::move(rd));
        }
        return;
    }

    // Leaf: gather from the local replicas, plus (for the origin
    // group only) one cross-group partial reduced by the spine.
    int local = tier.localGpus(sw);
    s.expected = local + (origin && tier.numGroups > 1 ? 1 : 0);
    for (int i = 0; i < local; ++i) {
        Packet rd = sw.makePacket(PacketType::readReq,
                                  tier.firstLocalGpu + i);
        rd.addr = pkt.addr;
        rd.reqBytes = pkt.reqBytes;
        rd.padResponse = pkt.padResponse;
        rd.cookie = cookieTagNvls | id;
        rd.kernel = pkt.kernel;
        sw.sendToGpu(std::move(rd));
    }
    if (origin && tier.numGroups > 1) {
        Packet up = sw.makePacket(PacketType::multimemLdReduceReq,
                                  tier.spineNodeForAddr(pkt.addr));
        up.addr = pkt.addr;
        up.reqBytes = pkt.reqBytes;
        up.padResponse = pkt.padResponse;
        up.cookie = cookieTagNvls | id;
        up.issuerGpu = pkt.issuerGpu;
        up.kernel = pkt.kernel;
        up.tierHop = 1;
        sw.sendToGpu(std::move(up));
    }
}

void
NvlsUnit::completeGather(std::uint64_t id, GatherSession &s)
{
    // All partials gathered; reduce in-flight and return the result.
    Packet resp = sw.makePacket(PacketType::multimemLdReduceResp,
                                s.requester);
    resp.addr = s.addr;
    resp.payloadBytes = s.bytes;
    resp.padBytes = s.pad;
    resp.cookie = s.hubCookie;
    resp.issuerGpu = s.requester;
    resp.kernel = s.kernel;
    resp.tb = s.tb;
    gathersDone.inc();
    // Fan-in wait edge: the gather spanned request arrival to the last
    // partial (the active cause) plus the in-flight reduce delay.
    if (CausalProfiler *prof = sw.profiler())
        prof->record(profnode::nvls(sw.id()), WaitClass::nvlsFanout,
                     s.profStart,
                     sw.eventQueue().now() + p.reduceDelay);
    gathers.erase(id);

    sw.eventQueue().scheduleAfter(p.reduceDelay,
        [this, r = std::move(resp)]() mutable {
        CausalProfiler::ScopedCause sc(sw.profiler(),
                                       profnode::nvls(sw.id()),
                                       sw.eventQueue().now());
        sw.sendToGpu(std::move(r));
    });
}

void
NvlsUnit::handleReadResp(Packet &&pkt)
{
    std::uint64_t id = pkt.cookie & cookieIdMask;
    auto it = gathers.find(id);
    if (it == gathers.end())
        panic("NVLS: read response for unknown gather %llu",
              static_cast<unsigned long long>(id));
    GatherSession &s = it->second;
    ++s.arrived;
    if (s.arrived < s.expected)
        return;
    completeGather(id, s);
}

void
NvlsUnit::handleLdReduceResp(Packet &&pkt)
{
    // A tier partial counts as one gathered contribution.
    handleReadResp(std::move(pkt));
}

} // namespace cais
