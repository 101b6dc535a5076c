/**
 * @file
 * Deep switch-side Perfetto trace: turns the SwitchTraceHooks
 * notifications and a periodic non-perturbing sampler into Chrome
 * trace-event lanes (DESIGN.md §6d).
 *
 * Lane map:
 *  - pid 0: GPUs — per-GPU kernel spans (added by runGraph).
 *  - pid 1: fabric — mean link utilization and per-GPU HBM bandwidth
 *    counter tracks.
 *  - pid 2+s: switch s — tid = home port p carries merge-session
 *    spans (open -> close, labelled with merged-request count and
 *    bytes); tid = numGpus carries group-sync rendezvous windows;
 *    tid = numGpus + 1 carries eviction / throttle-hint instants.
 *    Counter tracks sample per-port merging-table occupancy and
 *    per-VC downlink queue depth.
 *  - pid 2+numSwitches: critical path — one lane per wait class
 *    (added by runGraph when the run is also profiled).
 *
 * The probe is a pure observer: it never schedules events or mutates
 * simulation state, and sampling runs outside the event stream
 * (EventQueue::setPeriodicObserver), so a traced run is bit-identical
 * to an untraced one.
 */

#ifndef CAIS_ANALYSIS_DEEP_TRACE_HH
#define CAIS_ANALYSIS_DEEP_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/trace.hh"
#include "common/trace_hooks.hh"

namespace cais
{

class System;

/** SwitchTraceHooks implementation feeding a TraceCollector. */
class DeepTraceProbe : public SwitchTraceHooks
{
  public:
    DeepTraceProbe(System &sys, TraceCollector &tc);

    /** Process lane of switch @p s. */
    static int
    switchPid(SwitchId s)
    {
        return 2 + s;
    }

    /** Process lane of the critical-path flame lanes, after the
     *  last switch. */
    int criticalPathPid() const;

    /** Emit process/thread metadata for every lane. */
    void announceLanes();

    /** Periodic counter-track sample (see class comment). */
    void sample(Cycle at);

    // SwitchTraceHooks
    void onMergeSessionClose(SwitchId sw, GpuId port, Addr addr,
                             bool is_load, int hits,
                             std::uint32_t bytes, Cycle opened_at,
                             Cycle at, bool complete) override;
    void onMergeEviction(SwitchId sw, GpuId port, bool timeout,
                         Cycle at) override;
    void onThrottleHint(SwitchId sw, GpuId gpu, GroupId group,
                        Cycle at) override;
    void onSyncWindow(SwitchId sw, GroupId group, int phase,
                      Cycle first_at, Cycle released_at) override;

  private:
    System &sys;
    TraceCollector &tc;

    /** Counter-track names, built once: per port, VC and GPU. */
    std::vector<std::string> portTableNames;
    std::vector<std::string> vcDepthNames;
    std::vector<std::string> hbmBwNames;

    /** HBM byte totals at the previous sample (bandwidth deltas). */
    std::vector<std::uint64_t> lastHbmBytes;
    Cycle lastSampleAt = 0;
};

} // namespace cais

#endif // CAIS_ANALYSIS_DEEP_TRACE_HH
