#include "noc/switch_chip.hh"

#include "analysis/causal_profile.hh"
#include "common/log.hh"

namespace cais
{

SwitchChip::SwitchChip(EventQueue &eq_, SwitchId id, int node_id,
                       int num_gpus, const SwitchParams &params)
    : eq(eq_), switchId(id), node(node_id), p(params),
      inPorts(static_cast<std::size_t>(num_gpus)),
      outPorts(static_cast<std::size_t>(num_gpus)),
      waiting(static_cast<std::size_t>(num_gpus),
              std::vector<std::vector<std::pair<int, int>>>(
                  static_cast<std::size_t>(params.numVcs)))
{
    for (auto &port : inPorts) {
        port.vcs.assign(static_cast<std::size_t>(p.numVcs),
                        VirtualChannel(static_cast<std::size_t>(p.vcDepth)));
        port.busy.assign(static_cast<std::size_t>(p.numVcs), false);
    }
}

void
SwitchChip::attachUplink(GpuId g, CreditLink *from_gpu)
{
    inPorts[static_cast<std::size_t>(g)].link = from_gpu;
    // The port index rides on the link as its sink tag; keying a map
    // on the link pointer would order ports by allocation address.
    from_gpu->setSink(this, g);
}

void
SwitchChip::attachDownlink(GpuId g, CreditLink *to_gpu)
{
    outPorts[static_cast<std::size_t>(g)] =
        std::make_unique<OutputPort>(to_gpu, p.outQueueDepth);
    outPorts[static_cast<std::size_t>(g)]->setSpaceCallback(
        [this, g](int vc) { onDownlinkSpace(g, vc); });
}

void
SwitchChip::acceptPacket(Packet &&pkt, CreditLink *from, int vc)
{
    int port = from->sinkTag();
    if (port < 0 || port >= numGpus() ||
        inPorts[static_cast<std::size_t>(port)].link != from)
        panic("switch %d: packet from unknown link", switchId);
    auto &in = inPorts[static_cast<std::size_t>(port)];
    if (prof)
        // Re-stamp as the ingress-arrival time (the send-side cause
        // in profT was consumed by the link's queue-wait edge); the
        // VC-arbitration edge at processHead covers [arrival, serve].
        pkt.profT = eq.now();
    in.vcs[static_cast<std::size_t>(vc)].push(std::move(pkt));
    if (!in.busy[static_cast<std::size_t>(vc)]) {
        in.busy[static_cast<std::size_t>(vc)] = true;
        scheduleProcess(port, vc, p.pipelineDelay);
    }
}

void
SwitchChip::scheduleProcess(int port, int vc, Cycle delay)
{
    eq.scheduleAfter(delay, [this, port, vc] { processHead(port, vc); });
}

void
SwitchChip::processHead(int port, int vc)
{
    auto &in = inPorts[static_cast<std::size_t>(port)];
    auto &buf = in.vcs[static_cast<std::size_t>(vc)];
    if (buf.empty()) {
        in.busy[static_cast<std::size_t>(vc)] = false;
        return;
    }

    Packet &head = buf.front();

    // VC-arbitration edge (recorded only when the head actually
    // leaves the buffer, so head-of-line parking folds into one
    // edge): the head sat in the ingress VC from arrival (profT)
    // until this service event. The in-link node stands for the
    // ingress port on the critical path; the scoped cause hands it
    // to everything this service triggers downstream.
    std::uint64_t in_node = prof ? in.link->profNode() : 0;

    if (handler && handler->wants(head)) {
        if (prof)
            prof->record(in_node, WaitClass::vcArbitration,
                         head.profT, eq.now(), in_node, head.profT);
        Packet pkt = buf.pop();
        in.link->returnCredit(vc);
        consumed.inc();
        {
            CausalProfiler::ScopedCause sc(prof, in_node, eq.now());
            handler->handlePacket(std::move(pkt));
        }
        scheduleProcess(port, vc, p.perPacketProcess);
        return;
    }

    // Plain unicast forward. Without a router the output port is the
    // destination GPU id (flat shape); a router maps remote or
    // switch-node destinations onto tier links.
    int dst = router ? router(head) : head.dst;
    if (dst < 0 || dst >= numPorts())
        panic("switch %d: cannot route packet type %s to node %d",
              switchId, packetTypeName(head.type), head.dst);

    auto &out = outPorts[static_cast<std::size_t>(dst)];
    if (!out->canAccept(head.vc)) {
        // Head-of-line block: park until the output VC drains. The VC
        // stays busy (no service event) and resumes via
        // onDownlinkSpace.
        waiting[static_cast<std::size_t>(dst)]
               [static_cast<std::size_t>(head.vc)]
                   .emplace_back(port, vc);
        return;
    }

    if (prof)
        prof->record(in_node, WaitClass::vcArbitration, head.profT,
                     eq.now(), in_node, head.profT);
    Packet pkt = buf.pop();
    in.link->returnCredit(vc);
    forwarded.inc();
    {
        CausalProfiler::ScopedCause sc(prof, in_node, eq.now());
        out->enqueue(std::move(pkt));
    }
    scheduleProcess(port, vc, p.perPacketProcess);
}

void
SwitchChip::onDownlinkSpace(GpuId g, int vc)
{
    auto &list = waiting[static_cast<std::size_t>(g)]
                        [static_cast<std::size_t>(vc)];
    if (list.empty())
        return;
    // Wake all parked heads; they re-check space in arrival order.
    auto parked = std::move(list);
    list.clear();
    for (auto [port, in_vc] : parked)
        scheduleProcess(port, in_vc, 0);
}

void
SwitchChip::sendToGpu(Packet &&pkt)
{
    int dst = router ? router(pkt) : pkt.dst;
    if (dst < 0 || dst >= numPorts())
        panic("switch %d: sendToGpu to bad node %d", switchId, pkt.dst);
    pkt.vc = policedVc(pkt.vc, p.unifiedDataVc);
    generated.inc();
    outPorts[static_cast<std::size_t>(dst)]->enqueueForced(std::move(pkt));
}

std::size_t
SwitchChip::downlinkQueue(GpuId g, VcClass vc) const
{
    return outPorts[static_cast<std::size_t>(g)]->link()->queueLen(
        static_cast<int>(vc));
}

std::size_t
SwitchChip::peakInputOccupancy() const
{
    std::size_t peak = 0;
    for (const auto &port : inPorts)
        for (const auto &vc : port.vcs)
            peak = std::max(peak, vc.peakOccupancy());
    return peak;
}

void
SwitchChip::registerMetrics(MetricRegistry &reg,
                            const std::string &prefix) const
{
    reg.addCounter(prefix + ".forwarded", &forwarded);
    reg.addCounter(prefix + ".consumed", &consumed);
    reg.addCounter(prefix + ".generated", &generated);
    reg.addGaugeU64(prefix + ".peakInputVcOccupancy", [this] {
        return static_cast<std::uint64_t>(peakInputOccupancy());
    });
}

} // namespace cais
