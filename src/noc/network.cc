#include "noc/network.hh"

#include <algorithm>

#include "analysis/causal_profile.hh"
#include "common/log.hh"

namespace cais
{

namespace
{

/** Validate before any member construction (DeterministicRouting
 *  would otherwise panic on impossible shapes with a worse message). */
const FabricParams &
validated(const FabricParams &params)
{
    params.validate();
    return params;
}

} // namespace

Fabric::Fabric(EventQueue &eq_, const FabricParams &params)
    : eq(eq_), p(validated(params)),
      route(p.uplinksPerGpu(), p.interleaveBytes)
{
    build();
}

void
Fabric::build()
{
    const int gpp = p.gpusPerGroup();
    const int rails = p.uplinksPerGpu();
    const int leaves = p.numLeaves();
    const double rail_bw = p.perLinkBytesPerCycle();
    const double tier_bw = p.effectiveTierLinkBytesPerCycle();
    const Cycle tier_lat = p.effectiveTierLinkLatency();
    // GPU-facing links name their switch "s<S>" on the flat fabric
    // and "l<L>" (a leaf) on a leaf/spine one.
    const char seg = p.numSpines > 0 ? 'l' : 's';

    // Leaves own ports [0, gpp) for local GPUs and [gpp, gpp+spines)
    // for the spines; spines own one port per leaf.
    switches.reserve(static_cast<std::size_t>(p.numSwitches));
    for (SwitchId s = 0; s < p.numSwitches; ++s) {
        int ports = p.isSpineSwitch(s) ? leaves : gpp + p.numSpines;
        switches.push_back(std::make_unique<SwitchChip>(
            eq, s, switchNodeId(s), ports, p.sw));
        switches.back()->setPacketIds(&pktIds);
    }

    up.resize(static_cast<std::size_t>(p.numGpus));
    down.resize(static_cast<std::size_t>(leaves));
    for (int l = 0; l < leaves; ++l)
        down[static_cast<std::size_t>(l)].resize(
            static_cast<std::size_t>(gpp));

    for (GpuId g = 0; g < p.numGpus; ++g) {
        int grp = g / gpp;
        int local = g % gpp;
        auto &row = up[static_cast<std::size_t>(g)];
        row.resize(static_cast<std::size_t>(rails));
        for (int r = 0; r < rails; ++r) {
            int l = p.leafIndex(grp, r);
            row[static_cast<std::size_t>(r)] = std::make_unique<CreditLink>(
                eq, strfmt("up.g%d.%c%d", g, seg, l), rail_bw,
                p.linkLatency, p.sw.numVcs, p.vcCredits, p.utilBinWidth);
            switches[static_cast<std::size_t>(l)]->attachUplink(
                local, row[static_cast<std::size_t>(r)].get());

            auto dl = std::make_unique<CreditLink>(
                eq, strfmt("dn.%c%d.g%d", seg, l, g), rail_bw,
                p.linkLatency, p.sw.numVcs, p.vcCredits, p.utilBinWidth);
            switches[static_cast<std::size_t>(l)]->attachDownlink(
                local, dl.get());
            down[static_cast<std::size_t>(l)][static_cast<std::size_t>(
                local)] = std::move(dl);
        }
    }

    tierUp.resize(static_cast<std::size_t>(leaves));
    tierDown.resize(static_cast<std::size_t>(p.numSpines));
    for (int k = 0; k < p.numSpines; ++k)
        tierDown[static_cast<std::size_t>(k)].resize(
            static_cast<std::size_t>(leaves));

    for (int l = 0; l < leaves; ++l) {
        auto &row = tierUp[static_cast<std::size_t>(l)];
        row.resize(static_cast<std::size_t>(p.numSpines));
        for (int k = 0; k < p.numSpines; ++k) {
            int spine = leaves + k;
            row[static_cast<std::size_t>(k)] = std::make_unique<CreditLink>(
                eq, strfmt("t_up.l%d.k%d", l, k), tier_bw,
                tier_lat, p.sw.numVcs, p.vcCredits, p.utilBinWidth);
            switches[static_cast<std::size_t>(spine)]->attachUplink(
                l, row[static_cast<std::size_t>(k)].get());

            auto dl = std::make_unique<CreditLink>(
                eq, strfmt("t_dn.k%d.l%d", k, l), tier_bw,
                tier_lat, p.sw.numVcs, p.vcCredits, p.utilBinWidth);
            switches[static_cast<std::size_t>(l)]->attachUplink(
                gpp + k, dl.get());
            switches[static_cast<std::size_t>(spine)]->attachDownlink(
                l, dl.get());
            // A leaf's spine-facing output port carries its uplink.
            switches[static_cast<std::size_t>(l)]->attachDownlink(
                gpp + k, row[static_cast<std::size_t>(k)].get());
            tierDown[static_cast<std::size_t>(k)]
                    [static_cast<std::size_t>(l)] = std::move(dl);
        }
    }

    // Without spines every packet's output port is its destination
    // GPU, the switch chip's default; a port router would only add a
    // call per hop (and the leaf one would hash over zero spines).
    if (p.numSpines == 0)
        return;
    for (int l = 0; l < leaves; ++l) {
        int lg = l / rails;
        switches[static_cast<std::size_t>(l)]->setPortRouter(
            [this, lg, gpp](const Packet &pkt) {
                if (!isSwitchNode(pkt.dst)) {
                    if (pkt.dst / gpp == lg)
                        return pkt.dst % gpp;
                    return gpp + spinePort(pkt);
                }
                int s = pkt.dst - p.numGpus;
                if (p.isSpineSwitch(s))
                    return gpp + (s - p.numLeaves());
                // Foreign leaf: reachable only through a spine.
                return gpp + spinePort(pkt);
            });
    }
    for (int k = 0; k < p.numSpines; ++k) {
        switches[static_cast<std::size_t>(leaves + k)]->setPortRouter(
            [this, gpp](const Packet &pkt) {
                if (!isSwitchNode(pkt.dst))
                    return p.leafIndex(pkt.dst / gpp, railFor(pkt));
                int s = pkt.dst - p.numGpus;
                return p.isSpineSwitch(s) ? -1 : s;
            });
    }
}

int
Fabric::spinePort(const Packet &pkt) const
{
    return pkt.type == PacketType::groupSyncReq
               ? route.spineForGroup(pkt.group, p.numSpines)
               : route.spineForAddr(pkt.addr, p.numSpines);
}

int
Fabric::railFor(const Packet &pkt) const
{
    return pkt.type == PacketType::groupSyncReq
               ? route.switchForGroup(pkt.group)
               : route.switchForAddr(pkt.addr);
}

void
Fabric::attachGpu(GpuId g, PacketSink *sink)
{
    int gpp = p.gpusPerGroup();
    for (int r = 0; r < p.uplinksPerGpu(); ++r)
        down[static_cast<std::size_t>(p.leafIndex(g / gpp, r))]
            [static_cast<std::size_t>(g % gpp)]
                ->setSink(sink);
}

void
Fabric::sendFromGpu(GpuId g, Packet &&pkt)
{
    pkt.vc = policedVc(pkt.vc, p.sw.unifiedDataVc);
    const int rails = p.uplinksPerGpu();
    int rail;
    if (isSwitchNode(pkt.dst)) {
        int s = pkt.dst - p.numGpus;
        if (!p.isSpineSwitch(s) && s / rails == p.groupOfGpu(g))
            rail = s % rails; // own-group leaf: direct rail
        else
            rail = railFor(pkt); // spine/foreign leaf: hashed rail up
    } else {
        rail = railFor(pkt);
    }
    up[static_cast<std::size_t>(g)][static_cast<std::size_t>(rail)]->send(
        std::move(pkt));
}

int
Fabric::mergeNode(GpuId g, Addr addr) const
{
    return switchNodeId(
        p.leafIndex(p.groupOfGpu(g), route.switchForAddr(addr)));
}

int
Fabric::syncNode(GpuId g, GroupId group) const
{
    return switchNodeId(
        p.leafIndex(p.groupOfGpu(g), route.switchForGroup(group)));
}

int
Fabric::spineNodeForAddr(Addr addr) const
{
    return switchNodeId(p.numLeaves() +
                        route.spineForAddr(addr, p.numSpines));
}

int
Fabric::spineNodeForGroup(GroupId group) const
{
    return switchNodeId(p.numLeaves() +
                        route.spineForGroup(group, p.numSpines));
}

CreditLink &
Fabric::uplink(GpuId g, int i)
{
    return *up[static_cast<std::size_t>(g)][static_cast<std::size_t>(i)];
}

void
Fabric::setProfiler(CausalProfiler *pr)
{
    // Containers are walked in forEachLink visit order, so the dense
    // link ids — and with them every profile-graph node and the
    // merged edge log — are identical across runs.
    auto attach = [pr](CreditLink &l) {
        l.setProfiler(pr,
                      profnode::link(pr->addLink(l.name())));
    };
    for (auto &row : up)
        for (auto &l : row)
            attach(*l);
    for (auto &row : down)
        for (auto &l : row)
            attach(*l);
    for (auto &row : tierUp)
        for (auto &l : row)
            attach(*l);
    for (auto &row : tierDown)
        for (auto &l : row)
            attach(*l);
    for (auto &sw : switches)
        sw->setProfiler(pr);
}

void
Fabric::forEachLink(
    const std::function<void(const CreditLink &)> &fn) const
{
    for (const auto *links : {&up, &down, &tierUp, &tierDown})
        for (const auto &row : *links)
            for (const auto &l : row)
                fn(*l);
}

std::vector<const CreditLink *>
Fabric::allLinks(int dir) const
{
    std::vector<const CreditLink *> ls;
    if (dir == 0 || dir == 2) {
        for (const auto &row : up)
            for (const auto &l : row)
                ls.push_back(l.get());
        for (const auto &row : tierUp)
            for (const auto &l : row)
                ls.push_back(l.get());
    }
    if (dir == 1 || dir == 2) {
        for (const auto &row : down)
            for (const auto &l : row)
                ls.push_back(l.get());
        for (const auto &row : tierDown)
            for (const auto &l : row)
                ls.push_back(l.get());
    }
    return ls;
}

double
Fabric::linkSetUtilization(const std::vector<const CreditLink *> &ls,
                           Cycle t0, Cycle t1) const
{
    if (ls.empty() || t1 <= t0)
        return 0.0;
    double total = 0.0;
    for (const auto *l : ls) {
        const TimeSeries &u = l->utilization();
        Cycle w = u.binWidth();
        std::size_t first = static_cast<std::size_t>(t0 / w);
        std::size_t last = static_cast<std::size_t>((t1 + w - 1) / w);
        double bytes = 0.0;
        for (std::size_t i = first; i < last; ++i)
            bytes += u.binValue(i);
        double cap = l->bytesPerCycle() * static_cast<double>(t1 - t0);
        total += std::min(1.0, bytes / cap);
    }
    return total / static_cast<double>(ls.size());
}

double
Fabric::avgUtilization(Cycle t0, Cycle t1) const
{
    return linkSetUtilization(allLinks(2), t0, t1);
}

double
Fabric::dirUtilization(bool up_dir, Cycle t0, Cycle t1) const
{
    return linkSetUtilization(allLinks(up_dir ? 0 : 1), t0, t1);
}

std::vector<double>
Fabric::utilizationSeries(Cycle t0, Cycle t1) const
{
    auto ls = allLinks(2);
    std::vector<double> out;
    if (ls.empty() || t1 <= t0)
        return out;
    Cycle w = p.utilBinWidth;
    std::size_t first = static_cast<std::size_t>(t0 / w);
    std::size_t last = static_cast<std::size_t>((t1 + w - 1) / w);
    out.assign(last - first, 0.0);
    for (const auto *l : ls) {
        double cap = l->bytesPerCycle() * static_cast<double>(w);
        for (std::size_t i = first; i < last; ++i) {
            out[i - first] +=
                std::min(1.0, l->utilization().binValue(i) / cap);
        }
    }
    for (auto &v : out)
        v /= static_cast<double>(ls.size());
    return out;
}

std::uint64_t
Fabric::totalWireBytes() const
{
    std::uint64_t n = 0;
    for (const auto *l : allLinks(2))
        n += l->totalWireBytes();
    return n;
}

void
Fabric::registerMetrics(MetricRegistry &reg,
                        const std::string &prefix) const
{
    forEachLink([&](const CreditLink &l) {
        l.registerMetrics(reg, prefix + "." + l.name());
    });
}

} // namespace cais
