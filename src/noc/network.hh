/**
 * @file
 * The assembled NVLink/NVSwitch fabric: switches, links, deterministic
 * routing, GPU attachment points, and fleet-wide utilization probes.
 *
 * One builder wires every shape: each GPU to its group's rail (leaf)
 * switches and every leaf to every spine switch. The flat DGX-style
 * fabric is the one-group, zero-spine case, where every switch is a
 * leaf of the single group and each GPU reaches all of them. With
 * spines, per-chip port routers steer packets whose destination is
 * not directly attached onto the right tier link; without them the
 * switch chips' default (output port == destination GPU) applies.
 */

#ifndef CAIS_NOC_NETWORK_HH
#define CAIS_NOC_NETWORK_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/event_queue.hh"
#include "noc/credit_link.hh"
#include "noc/routing.hh"
#include "noc/topology.hh"

namespace cais
{

class CausalProfiler;

/** A fully wired multi-GPU fabric, flat or leaf/spine. */
class Fabric
{
  public:
    Fabric(EventQueue &eq, const FabricParams &params);

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /** Attach the GPU's packet sink to all its downlinks. */
    void attachGpu(GpuId g, PacketSink *sink);

    /**
     * Attach the causal profiler (DESIGN.md §6g) to every link and
     * switch chip. Links get dense profile-node ids in forEachLink
     * visit order (deterministic across runs), with
     * their names registered for the artifact/flame-lane output.
     */
    void setProfiler(CausalProfiler *pr);

    /**
     * Inject a packet from GPU @p g. The serving switch is chosen
     * deterministically: group hash for sync traffic, address hash
     * for everything else, unless pkt.dst already names a switch.
     */
    void sendFromGpu(GpuId g, Packet &&pkt);

    /** Rail index owning @p a within every group (on the flat
     *  fabric, the switch id itself). */
    SwitchId routeAddr(Addr a) const { return route.switchForAddr(a); }
    SwitchId routeGroup(GroupId g) const { return route.switchForGroup(g); }

    int switchNodeId(SwitchId s) const { return p.numGpus + s; }
    bool isSwitchNode(int node) const
    {
        return node >= p.numGpus && node < p.numGpus + p.numSwitches;
    }

    /** Node id of the switch that merges @p addr for GPU @p g: the
     *  leaf of the GPU's group on the hashed rail. */
    int mergeNode(GpuId g, Addr addr) const;

    /** Node id of the switch that coordinates @p group for @p g. */
    int syncNode(GpuId g, GroupId group) const;

    /** Node id of the spine owning @p addr (needs spines). */
    int spineNodeForAddr(Addr addr) const;

    /** Node id of the spine coordinating @p group (needs spines). */
    int spineNodeForGroup(GroupId group) const;

    SwitchChip &switchChip(SwitchId s) { return *switches[s]; }
    const SwitchChip &switchChip(SwitchId s) const { return *switches[s]; }

    /** Uplinks per GPU: its group's rails (every switch if flat). */
    int uplinksPerGpu() const { return p.uplinksPerGpu(); }

    /** GPU @p g's @p i-th uplink: to rail i of its group. */
    CreditLink &uplink(GpuId g, int i);

    /**
     * Visit every link with a stable name: GPU uplinks in (gpu, rail)
     * order, GPU downlinks in (leaf, local gpu) order, then the tier
     * links. The flat visit order matches the historical per-link
     * diagnostics order of cais-verify V2.
     */
    void forEachLink(
        const std::function<void(const CreditLink &)> &fn) const;

    const FabricParams &params() const { return p; }
    const DeterministicRouting &routing() const { return route; }

    /**
     * The simulation-wide packet-id source. Owned here (one per
     * System) so ids restart from 1 for every run and concurrent
     * Systems stay bit-identical to serial execution.
     */
    PacketIdAllocator &packetIds() { return pktIds; }

    /**
     * Mean link utilization in [t0, t1) as a fraction of capacity,
     * averaged over all links and both directions (the metric of
     * Fig. 15).
     */
    double avgUtilization(Cycle t0, Cycle t1) const;

    /** Same, restricted to one direction (up = GPU-to-switch). */
    double dirUtilization(bool up, Cycle t0, Cycle t1) const;

    /**
     * Per-bin utilization fraction averaged over all links for bins
     * covering [t0, t1) (the series of Fig. 16).
     */
    std::vector<double> utilizationSeries(Cycle t0, Cycle t1) const;

    /** Total wire bytes moved on all links. */
    std::uint64_t totalWireBytes() const;

    /**
     * Register every link's scalar counters under prefix.<link name>:
     * prefix.up.g<G>.s<S>.* and prefix.dn.s<S>.g<G>.* on the flat
     * fabric, prefix.up.g<G>.l<L>.* / prefix.dn.l<L>.g<G>.* plus
     * prefix.t_up.l<L>.k<K>.* / prefix.t_dn.k<K>.l<L>.* with spines
     * (the switch chips register separately under the per-switch
     * subtree).
     */
    void registerMetrics(MetricRegistry &reg,
                         const std::string &prefix) const;

  private:
    void build();

    int spinePort(const Packet &pkt) const;
    int railFor(const Packet &pkt) const;

    double linkSetUtilization(const std::vector<const CreditLink *> &ls,
                              Cycle t0, Cycle t1) const;
    std::vector<const CreditLink *> allLinks(int dir) const; // 0 up,1 dn,2 both

    EventQueue &eq;
    FabricParams p;
    DeterministicRouting route;
    PacketIdAllocator pktIds;

    std::vector<std::unique_ptr<SwitchChip>> switches;
    // up[g][r]: GPU g -> rail r of its group; down[l][i]: leaf l ->
    // its i-th local GPU (on the flat fabric up[g][s] and down[s][g]);
    // tierUp[l][k]: leaf l -> spine k; tierDown[k][l]: spine k ->
    // leaf l (both empty without spines).
    std::vector<std::vector<std::unique_ptr<CreditLink>>> up;
    std::vector<std::vector<std::unique_ptr<CreditLink>>> down;
    std::vector<std::vector<std::unique_ptr<CreditLink>>> tierUp;
    std::vector<std::vector<std::unique_ptr<CreditLink>>> tierDown;
};

} // namespace cais

#endif // CAIS_NOC_NETWORK_HH
