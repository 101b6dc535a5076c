#include "analysis/deep_trace.hh"

#include <algorithm>

#include "common/log.hh"
#include "runtime/system.hh"

namespace cais
{

DeepTraceProbe::DeepTraceProbe(System &sys_, TraceCollector &tc_)
    : sys(sys_), tc(tc_)
{
    lastHbmBytes.assign(static_cast<std::size_t>(sys.numGpus()), 0);
    for (GpuId g = 0; g < sys.numGpus(); ++g) {
        portTableNames.push_back(strfmt("port%d table B", g));
        hbmBwNames.push_back(strfmt("gpu%d HBM B/cyc", g));
    }
    int num_vcs = 0;
    for (SwitchId s = 0; s < sys.numSwitches(); ++s)
        num_vcs = std::max(num_vcs,
                           sys.fabric().switchChip(s).params().numVcs);
    for (int vc = 0; vc < num_vcs; ++vc)
        vcDepthNames.push_back(strfmt("vc%d downlink depth", vc));
}

int
DeepTraceProbe::criticalPathPid() const
{
    return switchPid(sys.numSwitches());
}

void
DeepTraceProbe::announceLanes()
{
    for (GpuId g = 0; g < sys.numGpus(); ++g)
        tc.nameLane(1, g, strfmt("gpu%d HBM", g));
    int ports = sys.numGpus();
    for (SwitchId s = 0; s < sys.numSwitches(); ++s) {
        int pid = switchPid(s);
        tc.nameProcess(pid, strfmt("switch %d", s));
        for (int p = 0; p < ports; ++p)
            tc.nameLane(pid, p, strfmt("merge port %d", p));
        tc.nameLane(pid, ports, "group sync");
        tc.nameLane(pid, ports + 1, "evict / throttle");
    }
}

void
DeepTraceProbe::onMergeSessionClose(SwitchId sw, GpuId port, Addr addr,
                                    bool is_load, int hits,
                                    std::uint32_t bytes,
                                    Cycle opened_at, Cycle at,
                                    bool complete)
{
    // One complete span per session, emitted at close so no per-entry
    // bookkeeping is needed; the label carries the merge payoff.
    tc.addSpan(strfmt("%s 0x%llx x%d %uB%s", is_load ? "ld" : "red",
                      static_cast<unsigned long long>(addr), hits,
                      bytes, complete ? "" : " (evicted)"),
               is_load ? "merge-load" : "merge-red", switchPid(sw),
               port, opened_at, at);
}

void
DeepTraceProbe::onMergeEviction(SwitchId sw, GpuId port, bool timeout,
                                Cycle at)
{
    tc.addInstant(strfmt("%s evict port %d",
                         timeout ? "timeout" : "LRU", port),
                  "evict", switchPid(sw), sys.numGpus() + 1, at);
}

void
DeepTraceProbe::onThrottleHint(SwitchId sw, GpuId gpu, GroupId group,
                               Cycle at)
{
    tc.addInstant(strfmt("throttle gpu%d g%d", gpu, group), "throttle",
                  switchPid(sw), sys.numGpus() + 1, at);
}

void
DeepTraceProbe::onSyncWindow(SwitchId sw, GroupId group, int phase,
                             Cycle first_at, Cycle released_at)
{
    tc.addSpan(strfmt("sync g%d %s", group,
                      phase == 0 ? "pre-launch" : "pre-access"),
               "sync", switchPid(sw), sys.numGpus(), first_at,
               released_at);
}

void
DeepTraceProbe::sample(Cycle at)
{
    // Per-switch merging-table occupancy and downlink VC depth.
    for (SwitchId s = 0; s < sys.numSwitches(); ++s) {
        int pid = switchPid(s);
        SwitchComputeComplex &c = sys.switchCompute(s);
        const SwitchChip &chip = sys.fabric().switchChip(s);
        for (GpuId p = 0; p < sys.numGpus(); ++p)
            tc.addCounter(portTableNames[static_cast<std::size_t>(p)],
                          pid, at,
                          static_cast<double>(
                              c.merge().liveTableBytes(p)));
        int num_vcs = chip.params().numVcs;
        for (int vc = 0; vc < num_vcs; ++vc) {
            std::size_t depth = 0;
            // Tiered chips have per-chip port counts (local GPUs plus
            // tier links), not one port per fabric GPU.
            for (int port = 0; port < chip.numPorts(); ++port)
                depth += chip.downlinkQueue(
                    port, static_cast<VcClass>(vc));
            tc.addCounter(vcDepthNames[static_cast<std::size_t>(vc)],
                          pid, at, static_cast<double>(depth));
        }
    }

    // Per-GPU HBM bandwidth (bytes per cycle over the sample window).
    Cycle span = at > lastSampleAt ? at - lastSampleAt : 1;
    for (GpuId g = 0; g < sys.numGpus(); ++g) {
        std::uint64_t total = sys.gpu(g).hub().hbm().totalBytes();
        std::uint64_t delta =
            total - lastHbmBytes[static_cast<std::size_t>(g)];
        lastHbmBytes[static_cast<std::size_t>(g)] = total;
        tc.addCounter(hbmBwNames[static_cast<std::size_t>(g)], 1, at,
                      static_cast<double>(delta) /
                          static_cast<double>(span));
    }
    lastSampleAt = at;
}

} // namespace cais
