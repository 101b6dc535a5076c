#include "noc/credit_link.hh"

#include "analysis/causal_profile.hh"
#include "common/log.hh"

namespace cais
{

CreditLink::CreditLink(EventQueue &eq_, std::string name,
                       double bytes_per_cycle, Cycle latency, int num_vcs,
                       int vc_credits, Cycle util_bin_width)
    : eq(eq_), linkName(std::move(name)), bw(bytes_per_cycle),
      serDiv(bytes_per_cycle), lat(latency), arb(num_vcs),
      queues(static_cast<std::size_t>(num_vcs)),
      creditCount(static_cast<std::size_t>(num_vcs), vc_credits),
      pendingCredits(static_cast<std::size_t>(num_vcs)),
      util(util_bin_width)
{
    if (bw <= 0.0)
        panic("link %s: non-positive bandwidth", linkName.c_str());
}

void
CreditLink::setDequeueCallback(std::function<void(int)> cb)
{
    dequeueCb = std::move(cb);
}

void
CreditLink::send(Packet &&pkt)
{
    int vc = static_cast<int>(pkt.vc);
    if (vc < 0 || vc >= numVcs())
        panic("link %s: bad VC %d", linkName.c_str(), vc);
    if (prof) {
        // Provenance stamp: who caused this send, and when it was
        // enqueued (the sender's ScopedCause runs in this event, so
        // cause time == now).
        pkt.profSrc = prof->causeNode();
        pkt.profT = eq.now();
        pkt.profCreditStalled = false;
    }
    auto idx = static_cast<std::size_t>(vc);
    queues[idx].push_back(std::move(pkt));
    updateReady(idx);
    tryIssue();
}

void
CreditLink::returnCredit(int vc)
{
    // The credit travels the reverse channel; charge the link latency
    // but no serialization (credits ride dedicated wires). Credits for
    // the same VC freed in the same cycle share one arrival event.
    auto &pend = pendingCredits[static_cast<std::size_t>(vc)];
    Cycle at = eq.now() + lat;
    if (!pend.empty() && pend.back().first == at) {
        ++pend.back().second;
        return;
    }
    pend.emplace_back(at, 1);
    eq.scheduleAfter(lat, [this, vc] {
        auto idx = static_cast<std::size_t>(vc);
        auto &pd = pendingCredits[idx];
        creditCount[idx] += pd.front().second;
        pd.pop_front();
        updateReady(idx);
        tryIssue();
    });
}

void
CreditLink::tryIssue()
{
    if (eq.now() < busyUntil) {
        if (!wakeScheduled) {
            wakeScheduled = true;
            eq.schedule(busyUntil, [this] {
                wakeScheduled = false;
                tryIssue();
            });
        }
        return;
    }

    int vc = arb.pick(readyMask);
    if (vc < 0) {
        // Every non-empty queue is blocked on credits (the serializer
        // is idle here); mark the heads so their queue-wait edge is
        // classed as a credit stall rather than wire occupancy.
        if (prof)
            for (auto &q : queues)
                if (!q.empty())
                    q.front().profCreditStalled = true;
        return;
    }

    auto idx = static_cast<std::size_t>(vc);
    Packet pkt = std::move(queues[idx].front());
    queues[idx].pop_front();
    --creditCount[idx];
    updateReady(idx);

    Cycle ser = serDiv.cycles(pkt.wireBytes());
    if (ser == 0)
        ser = 1;

    Cycle start = eq.now();
    busyUntil = start + ser;
    busy += ser;
    util.recordInterval(start, start + ser,
                        static_cast<double>(pkt.wireBytes()));
    wireBytes.inc(pkt.wireBytes());
    payloadBytes.inc(pkt.payloadBytes);
    packets.inc();

    if (dequeueCb)
        dequeueCb(vc);

    if (!sink)
        panic("link %s has no sink", linkName.c_str());

    // Deliver after serialization plus propagation, moving the payload
    // into the deliver event (no allocation: InlineEvent holds it).
    Cycle deliver_at = start + ser + lat;

    if (prof) {
        // Queue-wait edge (zero-length when the packet issued the
        // cycle it was sent): hops the walk back to the sender-side
        // cause. Then the wire-occupancy edge covering ser + lat.
        prof->record(profNode_,
                     pkt.profCreditStalled
                         ? WaitClass::creditStall
                         : WaitClass::linkSerialization,
                     pkt.profT, start, pkt.profSrc, pkt.profT);
        prof->record(profNode_, WaitClass::linkSerialization, start,
                     deliver_at, profNode_, start);
    }

    if (deliver_at == busyUntil && !wakeScheduled) {
        // Zero-latency link: the drain wake would land on the same
        // cycle directly after the delivery; fold it into one event.
        wakeScheduled = true;
        eq.schedule(deliver_at, [this, p = std::move(pkt), vc]() mutable {
            {
                CausalProfiler::ScopedCause sc(prof, profNode_,
                                               eq.now());
                sink->acceptPacket(std::move(p), this, vc);
            }
            wakeScheduled = false;
            tryIssue();
        });
        return;
    }

    eq.schedule(deliver_at, [this, p = std::move(pkt), vc]() mutable {
        // The delivery is the enabling cause of whatever the sink
        // records downstream (hub completions, TB wakeups).
        CausalProfiler::ScopedCause sc(prof, profNode_, eq.now());
        sink->acceptPacket(std::move(p), this, vc);
    });

    // Keep draining back-to-back. The wake is armed even when the
    // queues are momentarily empty: its early seq pins the drain
    // ahead of same-cycle credit arrivals, which keeps round-robin
    // arbitration order identical to the original implementation.
    if (!wakeScheduled) {
        wakeScheduled = true;
        eq.schedule(busyUntil, [this] {
            wakeScheduled = false;
            tryIssue();
        });
    }
}

void
CreditLink::registerMetrics(MetricRegistry &reg,
                            const std::string &prefix) const
{
    // The per-bin utilization TimeSeries is deliberately not
    // registered: one series per link direction would dominate the
    // report; Fabric exposes the fleet-wide aggregate instead.
    reg.addCounter(prefix + ".wireBytes", &wireBytes);
    reg.addCounter(prefix + ".payloadBytes", &payloadBytes);
    reg.addCounter(prefix + ".packets", &packets);
    reg.addGaugeU64(prefix + ".busyCycles", [this] { return busy; });
}

} // namespace cais
