#include "gpu/hbm.hh"

#include "analysis/causal_profile.hh"
#include "common/log.hh"

namespace cais
{

HbmModel::HbmModel(EventQueue &eq_, double bytes_per_cycle, Cycle latency)
    : eq(eq_), bw(bytes_per_cycle), serDiv(bytes_per_cycle), lat(latency)
{
    if (bw <= 0)
        panic("HBM bandwidth must be positive");
}

Cycle
HbmModel::reserve(std::uint64_t bytes_)
{
    Cycle now = eq.now();
    Cycle start = std::max(now, busyUntil);
    Cycle ser = serDiv.cycles(bytes_);
    if (ser == 0)
        ser = 1;
    busyUntil = start + ser;
    busy += ser;
    bytes.inc(bytes_);
    accesses.inc();
    if (prof)
        // Queueing behind earlier accesses plus serialization plus
        // latency, caused by whatever scheduled this access (the
        // requesting packet's delivery, a hub job).
        prof->record(profNode_, WaitClass::hbm, now,
                     start + ser + lat, prof->causeNode(),
                     prof->causeTime());
    return start + ser + lat;
}

} // namespace cais
