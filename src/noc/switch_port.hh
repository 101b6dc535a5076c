/**
 * @file
 * Switch output port: a bounded staging queue in front of one
 * downlink. Forwarded traffic respects the bound (providing
 * backpressure into the input buffers and hence head-of-line blocking
 * within a VC); traffic generated by in-switch compute units bypasses
 * it, since the merge/NVLS tables already bound their footprint.
 */

#ifndef CAIS_NOC_SWITCH_PORT_HH
#define CAIS_NOC_SWITCH_PORT_HH

#include <functional>

#include "noc/credit_link.hh"

namespace cais
{

/** Output side of a switch port feeding one GPU-bound link. */
class OutputPort
{
  public:
    OutputPort(CreditLink *link, int max_queue_per_vc);

    /** True if a forwarded packet of class @p vc may be enqueued. */
    bool canAccept(VcClass vc) const;

    /** Enqueue a forwarded packet; the caller checked canAccept(). */
    void enqueue(Packet &&pkt);

    /** Enqueue unit-generated traffic, ignoring the bound. */
    void enqueueForced(Packet &&pkt);

    /** Invoked with the VC index whenever queue space frees up. */
    void setSpaceCallback(std::function<void(int)> cb);

    CreditLink *link() { return out; }
    const CreditLink *link() const { return out; }

  private:
    CreditLink *out;
    int maxPerVc;
};

} // namespace cais

#endif // CAIS_NOC_SWITCH_PORT_HH
