/**
 * @file
 * Switch-side observability hooks.
 *
 * The in-switch engines (merge unit, Group Sync Table, throttle) call
 * these notification points at session boundaries; a trace collector
 * (analysis/deep_trace.hh) implements them to build Perfetto lanes.
 * Every method has an empty default body, so an unattached component
 * pays one null check per notification and nothing else.
 *
 * Contract: implementations are pure observers. They must not
 * schedule events, send packets, or mutate any simulation state —
 * the determinism tests (trace-on vs. trace-off bit-identical
 * RunResult) enforce this.
 */

#ifndef CAIS_COMMON_TRACE_HOOKS_HH
#define CAIS_COMMON_TRACE_HOOKS_HH

#include <cstdint>

#include "common/types.hh"

namespace cais
{

/** Observer interface for switch-internal lifecycle events. */
class SwitchTraceHooks
{
  public:
    virtual ~SwitchTraceHooks() = default;

    /**
     * A merge session closed (completed or evicted).
     * @param hits requests merged into the session.
     * @param bytes session data footprint.
     * @param opened_at allocation time (span start).
     * @param complete true when all expected requests arrived.
     */
    virtual void
    onMergeSessionClose(SwitchId sw, GpuId port, Addr addr,
                        bool is_load, int hits, std::uint32_t bytes,
                        Cycle opened_at, Cycle at, bool complete)
    {
        (void)sw, (void)port, (void)addr, (void)is_load, (void)hits;
        (void)bytes, (void)opened_at, (void)at, (void)complete;
    }

    /** An entry was evicted (LRU when !timeout, timeout sweep else). */
    virtual void
    onMergeEviction(SwitchId sw, GpuId port, bool timeout, Cycle at)
    {
        (void)sw, (void)port, (void)timeout, (void)at;
    }

    /** The throttle sent a pause hint to @p gpu. */
    virtual void
    onThrottleHint(SwitchId sw, GpuId gpu, GroupId group, Cycle at)
    {
        (void)sw, (void)gpu, (void)group, (void)at;
    }

    /**
     * A group-sync rendezvous completed: all participants registered
     * between @p first_at and @p released_at.
     */
    virtual void
    onSyncWindow(SwitchId sw, GroupId group, int phase, Cycle first_at,
                 Cycle released_at)
    {
        (void)sw, (void)group, (void)phase, (void)first_at;
        (void)released_at;
    }
};

} // namespace cais

#endif // CAIS_COMMON_TRACE_HOOKS_HH
