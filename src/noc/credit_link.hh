/**
 * @file
 * Unidirectional NVLink model with credit-based virtual-channel flow
 * control and a shared serializer.
 *
 * The sender side holds unbounded per-VC queues (upstream components
 * apply their own throttling); a packet may start serializing only
 * when the receiver-side VC buffer has a free slot (credit). The
 * serializer round-robins across eligible VCs. Link occupancy is
 * recorded into a TimeSeries for bandwidth-utilization studies
 * (Figs. 15/16 of the paper).
 */

#ifndef CAIS_NOC_CREDIT_LINK_HH
#define CAIS_NOC_CREDIT_LINK_HH

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/intmath.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "noc/arbiter.hh"
#include "noc/packet.hh"

namespace cais
{

class CausalProfiler;
class CreditLink;

/** Anything that terminates a link: a switch input port or a GPU. */
class PacketSink
{
  public:
    virtual ~PacketSink() = default;

    /**
     * Deliver a packet. The sink must eventually call
     * from->returnCredit(vc) to free the receive-buffer slot.
     */
    virtual void acceptPacket(Packet &&pkt, CreditLink *from, int vc) = 0;
};

/** One direction of an NVLink between a GPU and a switch. */
class CreditLink : public Probe
{
  public:
    CreditLink(EventQueue &eq, std::string name, double bytes_per_cycle,
               Cycle latency, int num_vcs, int vc_credits,
               Cycle util_bin_width);

    /**
     * Attach the receiving sink. @p tag is an opaque receiver-chosen
     * id (e.g. the switch input-port index) echoed by sinkTag(), so
     * sinks can recover which of their links a packet arrived on
     * without keying a container on the link's address.
     */
    void setSink(PacketSink *s, int tag = -1)
    {
        sink = s;
        tag_ = tag;
    }

    /** Tag registered by the sink, or -1 when none was set. */
    int sinkTag() const { return tag_; }

    /** Notified with the VC index whenever a packet starts the wire. */
    void setDequeueCallback(std::function<void(int)> cb);

    /**
     * Attach the causal profiler (DESIGN.md §6g); @p node is this
     * link's profile-graph node. Hooks stamp packet provenance at
     * send(), record queue-wait and wire-occupancy edges at issue,
     * and tag the delivery event as the downstream enabling cause.
     * Never schedules events: profiled runs are bit-identical.
     */
    void setProfiler(CausalProfiler *pr, std::uint64_t node)
    {
        prof = pr;
        profNode_ = node;
    }

    /** This link's profile-graph node (0 when unprofiled). */
    std::uint64_t profNode() const { return profNode_; }

    /** Enqueue a packet on its VC; serialization starts when eligible. */
    void send(Packet &&pkt);

    /**
     * Free one receive-buffer slot; the credit flies back upstream.
     * Credits freed for the same VC in the same cycle coalesce into
     * one arrival event (they ride the same reverse-channel beat).
     */
    void returnCredit(int vc);

    double bytesPerCycle() const { return bw; }
    Cycle latencyCycles() const { return lat; }
    int numVcs() const { return static_cast<int>(queues.size()); }

    std::size_t queueLen(int vc) const { return queues[vc].size(); }
    std::size_t totalQueued() const;
    int credits(int vc) const { return creditCount[vc]; }

    const std::string &name() const { return linkName; }

    /** Wire bytes accumulated into time bins. */
    const TimeSeries &utilization() const { return util; }

    std::uint64_t totalWireBytes() const { return wireBytes.value(); }
    std::uint64_t totalPayloadBytes() const { return payloadBytes.value(); }
    std::uint64_t totalPackets() const { return packets.value(); }
    Cycle busyCycles() const { return busy; }

    void registerMetrics(MetricRegistry &reg,
                         const std::string &prefix) const override;

  private:
    /** Try to start serializing the next eligible packet. */
    void tryIssue();

    EventQueue &eq;
    std::string linkName;
    double bw;
    SerDivider serDiv;
    Cycle lat;

    std::vector<std::deque<Packet>> queues;
    std::vector<int> creditCount;

    /** In-flight credit batches per VC: (arrival cycle, count), one
     *  scheduled event per batch, ordered by arrival cycle. */
    std::vector<std::deque<std::pair<Cycle, int>>> pendingCredits;

    RoundRobinArbiter arb;
    CausalProfiler *prof = nullptr;
    std::uint64_t profNode_ = 0;
    PacketSink *sink = nullptr;
    int tag_ = -1;
    std::function<void(int)> dequeueCb;

    std::size_t queuedTotal = 0;
    Cycle busyUntil = 0;
    bool wakeScheduled = false;

    TimeSeries util;
    Counter wireBytes;
    Counter payloadBytes;
    Counter packets;
    Cycle busy = 0;
};

} // namespace cais

#endif // CAIS_NOC_CREDIT_LINK_HH
