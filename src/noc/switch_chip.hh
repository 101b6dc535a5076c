/**
 * @file
 * NVSwitch chip model.
 *
 * Each GPU-facing input port has `numVcs` virtual channels of
 * `vcDepth` packets (8 x 256 per the paper's configuration). Packets
 * either belong to in-switch computing (NVLS multimem, CAIS load/red,
 * group sync) and are consumed by an attached SwitchComputeHandler, or
 * are plain unicast traffic forwarded to the destination GPU's output
 * port. Forwarding stalls when the output staging queue for the
 * packet's VC is full, blocking only that VC's head (other VCs
 * proceed), which is exactly the head-of-line behaviour CAIS's traffic
 * control addresses.
 */

#ifndef CAIS_NOC_SWITCH_CHIP_HH
#define CAIS_NOC_SWITCH_CHIP_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/event_queue.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "noc/switch_port.hh"
#include "noc/virtual_channel.hh"

namespace cais
{

class CausalProfiler;

/** Tunables of one switch chip. */
struct SwitchParams
{
    Cycle pipelineDelay = 100;  ///< input-to-output latency, cycles
    Cycle perPacketProcess = 1; ///< per-VC head service interval
    int numVcs = 8;
    int vcDepth = 256;
    int outQueueDepth = 256;

    /**
     * Collapse all data classes (response/reduction/multicast) onto a
     * single VC, disabling CAIS traffic control (CAIS-Partial).
     */
    bool unifiedDataVc = false;
};

/**
 * Interface the in-switch compute layer (NVLS unit, CAIS merge unit,
 * group sync table) implements to intercept fabric packets.
 */
class SwitchComputeHandler
{
  public:
    virtual ~SwitchComputeHandler() = default;

    /** True if this packet is consumed by in-switch computing. */
    virtual bool wants(const Packet &pkt) const = 0;

    /** Consume a packet previously accepted by wants(). */
    virtual void handlePacket(Packet &&pkt) = 0;
};

/** One NVSwitch chip with per-GPU input and output ports. */
class SwitchChip : public PacketSink, public Probe
{
  public:
    SwitchChip(EventQueue &eq, SwitchId id, int node_id, int num_gpus,
               const SwitchParams &params);

    /** Register the GPU->switch link arriving at port @p g. */
    void attachUplink(GpuId g, CreditLink *from_gpu);

    /** Register the switch->GPU link leaving toward GPU @p g. */
    void attachDownlink(GpuId g, CreditLink *to_gpu);

    void setComputeHandler(SwitchComputeHandler *h) { handler = h; }

    /** Attach the causal profiler (DESIGN.md §6g); hooks stamp
     *  ingress-arrival times and record VC-arbitration edges. */
    void setProfiler(CausalProfiler *pr) { prof = pr; }

    /** The attached profiler, read by the in-switch compute units. */
    CausalProfiler *profiler() const { return prof; }

    /**
     * Install the output-port lookup for forwarded and unit-generated
     * packets. Multi-tier fabrics use this to steer packets whose
     * destination is not directly attached (a remote GPU or another
     * switch) onto the right tier link. Without a router the chip
     * assumes the flat shape: output port == destination GPU id.
     */
    void setPortRouter(std::function<int(const Packet &)> r)
    {
        router = std::move(r);
    }

    /**
     * Point unit-generated packets at the simulation-wide id source
     * (the owning Fabric's allocator). A standalone chip (unit tests)
     * falls back to a private allocator.
     */
    void setPacketIds(PacketIdAllocator *ids) { pktIds = ids; }

    /** Id source for packets the attached compute units generate. */
    PacketIdAllocator &packetIds() { return *pktIds; }

    /** Build a unit-generated packet (src = this switch's node id)
     *  with a fresh id from the simulation-wide allocator. */
    Packet makePacket(PacketType t, int dst)
    {
        return cais::makePacket(*pktIds, t, node, dst);
    }

    void acceptPacket(Packet &&pkt, CreditLink *from, int vc) override;

    /**
     * Send a unit-generated packet toward GPU pkt.dst (bypasses the
     * forwarding bound; used by NVLS/merge/sync units).
     */
    void sendToGpu(Packet &&pkt);

    /** Forwarding-queue occupancy toward GPU @p g on class @p vc. */
    std::size_t downlinkQueue(GpuId g, VcClass vc) const;

    EventQueue &eventQueue() { return eq; }
    SwitchId id() const { return switchId; }
    int nodeId() const { return node; }
    int numGpus() const { return static_cast<int>(inPorts.size()); }
    /** Port-count alias: on multi-tier chips ports cover both locally
     *  attached GPUs and tier links, so "numGpus" is a misnomer. */
    int numPorts() const { return static_cast<int>(inPorts.size()); }
    const SwitchParams &params() const { return p; }

    std::uint64_t packetsForwarded() const { return forwarded.value(); }
    std::uint64_t packetsConsumed() const { return consumed.value(); }
    std::uint64_t packetsGenerated() const { return generated.value(); }

    /** Peak input-VC occupancy across all ports (buffer studies). */
    std::size_t peakInputOccupancy() const;

    /** Live input-VC occupancy summed over ports for class @p vc. */
    std::size_t inputOccupancy(int vc) const;

    void registerMetrics(MetricRegistry &reg,
                         const std::string &prefix) const override;

  private:
    struct InPort
    {
        CreditLink *link = nullptr;
        std::vector<VirtualChannel> vcs;
        /** True while a service event or a blocked head owns the VC. */
        std::vector<bool> busy;
    };

    void scheduleProcess(int port, int vc, Cycle delay);
    void processHead(int port, int vc);
    void onDownlinkSpace(GpuId g, int vc);

    EventQueue &eq;
    SwitchId switchId;
    int node;
    SwitchParams p;

    std::vector<InPort> inPorts;
    std::vector<std::unique_ptr<OutputPort>> outPorts;

    /** Heads blocked per (dst GPU, VC class): list of (port, in-vc). */
    std::vector<std::vector<std::vector<std::pair<int, int>>>> waiting;

    SwitchComputeHandler *handler = nullptr;
    CausalProfiler *prof = nullptr;
    std::function<int(const Packet &)> router;

    PacketIdAllocator ownIds;
    PacketIdAllocator *pktIds = &ownIds;

    Counter forwarded;
    Counter consumed;
    Counter generated;
};

} // namespace cais

#endif // CAIS_NOC_SWITCH_CHIP_HH
