/**
 * @file
 * Bounded FIFO buffer backing one virtual channel at a switch input
 * port.
 */

#ifndef CAIS_NOC_VIRTUAL_CHANNEL_HH
#define CAIS_NOC_VIRTUAL_CHANNEL_HH

#include <cstddef>

#include "common/ring_queue.hh"
#include "noc/packet.hh"

namespace cais
{

/** One virtual-channel buffer (packet-granularity, bounded depth). */
class VirtualChannel
{
  public:
    explicit VirtualChannel(std::size_t depth = 256) : maxDepth(depth) {}

    bool empty() const { return fifo.empty(); }
    bool full() const { return fifo.size() >= maxDepth; }
    std::size_t size() const { return fifo.size(); }
    std::size_t depth() const { return maxDepth; }

    /** Enqueue; the caller must have checked !full(). */
    void push(Packet &&pkt);

    /** Head packet; the caller must have checked !empty(). */
    Packet &front();

    /** Pop and return the head packet. */
    Packet pop();

    /** Largest occupancy ever observed (for buffer-sizing studies). */
    std::size_t peakOccupancy() const { return peak; }

  private:
    RingQueue<Packet> fifo;
    std::size_t maxDepth;
    std::size_t peak = 0;
};

} // namespace cais

#endif // CAIS_NOC_VIRTUAL_CHANNEL_HH
