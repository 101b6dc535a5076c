#include "noc/virtual_channel.hh"

#include "common/log.hh"

namespace cais
{

void
VirtualChannel::push(Packet &&pkt)
{
    if (full())
        panic("VC overflow (depth %zu); credit protocol violated",
              maxDepth);
    fifo.push_back(std::move(pkt));
    if (fifo.size() > peak)
        peak = fifo.size();
}

Packet &
VirtualChannel::front()
{
    if (fifo.empty())
        panic("front() on empty VC");
    return fifo.front();
}

Packet
VirtualChannel::pop()
{
    if (fifo.empty())
        panic("pop() on empty VC");
    Packet p = std::move(fifo.front());
    fifo.pop_front();
    return p;
}

} // namespace cais
