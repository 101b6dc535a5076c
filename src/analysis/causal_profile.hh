/**
 * @file
 * Causal wait-for profiler (DESIGN.md §6g): every blocking site in
 * the simulator — credit stalls, VC arbitration, merge-table session
 * waits, group-sync barriers, NVLS fan-out, TB-scheduler occupancy,
 * HBM contention, kernel-graph dependencies — records a provenance-
 * tagged wait-for edge. After the run a backward walk from the
 * makespan-defining event extracts the critical path and attributes
 * every makespan cycle to a leaf resource class.
 *
 * Contract (locked by tests):
 *  - Zero event-stream perturbation: hooks only read simulation state
 *    and append to side logs; a profiled run is bit-identical to an
 *    unprofiled one, and a run with no profiler attached executes the
 *    exact pre-profiler instruction stream.
 *  - Canonical order: finalize() sorts the log into (dst, t1, t0,
 *    cls, src, srcT) order, so the analysis and the artifact are
 *    byte-identical across runs of the same config.
 */

#ifndef CAIS_ANALYSIS_CAUSAL_PROFILE_HH
#define CAIS_ANALYSIS_CAUSAL_PROFILE_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace cais
{

class TraceCollector;

/** Leaf resource classes a makespan cycle can be attributed to. */
enum class WaitClass : std::uint8_t
{
    unattributed = 0,  ///< walk could not explain these cycles
    smCompute,         ///< TB busy on SM compute
    hbm,               ///< HBM serialization / contention
    linkSerialization, ///< wire occupancy of a fabric link
    creditStall,       ///< link idle awaiting flow-control credits
    vcArbitration,     ///< switch ingress pipeline / VC arbitration
    mergeWait,         ///< merge-table session open, awaiting peers
    syncBarrier,       ///< group-sync rendezvous wait
    nvlsFanout,        ///< NVLS multicast/reduction tree latency
    schedulerIdle,     ///< TB ready but no free SM slot
    hubInjection,      ///< hub queueing before fabric injection
    launch,            ///< kernel launch latency / start skew
    depWait,           ///< kernel-graph dependency wait
    numClasses,
};

/** Stable lower-camel name of a class ("smCompute", ...). */
const char *waitClassName(WaitClass c);

/** Profile-graph node: a resource/actor instance, type in top byte. */
using ProfNode = std::uint64_t;

namespace profnode
{

/** Node type tags (top byte of a ProfNode). */
enum : std::uint64_t
{
    typeRoot = 1,
    typeKernel,
    typeTb,
    typeTile,
    typeHub,
    typeHubQueue,
    typeHbm,
    typeSched,
    typeLink,
    typeMerge,
    typeSync,
    typeNvls,
};

constexpr int typeShift = 56;

constexpr std::uint64_t
pack(std::uint64_t type, std::uint64_t payload)
{
    return (type << typeShift) | payload;
}

constexpr std::uint64_t
typeOf(ProfNode n)
{
    return n >> typeShift;
}

constexpr ProfNode
root()
{
    return pack(typeRoot, 0);
}

constexpr ProfNode
kernel(KernelId k)
{
    return pack(typeKernel, static_cast<std::uint32_t>(k));
}

/** One TB instance of a kernel on a GPU. */
constexpr ProfNode
tb(KernelId k, GpuId gpu, int tb_index)
{
    return pack(typeTb,
                ((static_cast<std::uint64_t>(k) & 0xFFFFF) << 36) |
                    ((static_cast<std::uint64_t>(gpu) & 0xFFF)
                     << 24) |
                    (static_cast<std::uint64_t>(tb_index) &
                     0xFFFFFF));
}

/** One tile of a tile-dependency tracker on a GPU. */
constexpr ProfNode
tile(int tracker, GpuId gpu, int tile_index)
{
    return pack(typeTile,
                ((static_cast<std::uint64_t>(tracker) & 0xFFF)
                 << 44) |
                    ((static_cast<std::uint64_t>(gpu) & 0xFFF)
                     << 32) |
                    (static_cast<std::uint64_t>(tile_index) &
                     0xFFFFFFFF));
}

constexpr ProfNode
hub(GpuId g)
{
    return pack(typeHub, static_cast<std::uint32_t>(g));
}

constexpr ProfNode
hubQueue(GpuId g)
{
    return pack(typeHubQueue, static_cast<std::uint32_t>(g));
}

constexpr ProfNode
hbm(GpuId g)
{
    return pack(typeHbm, static_cast<std::uint32_t>(g));
}

constexpr ProfNode
sched(GpuId g)
{
    return pack(typeSched, static_cast<std::uint32_t>(g));
}

/** A CreditLink, by the profiler-assigned dense link id. */
constexpr ProfNode
link(std::uint32_t prof_id)
{
    return pack(typeLink, prof_id);
}

constexpr ProfNode
merge(SwitchId s)
{
    return pack(typeMerge, static_cast<std::uint32_t>(s));
}

constexpr ProfNode
sync(SwitchId s)
{
    return pack(typeSync, static_cast<std::uint32_t>(s));
}

constexpr ProfNode
nvls(SwitchId s)
{
    return pack(typeNvls, static_cast<std::uint32_t>(s));
}

} // namespace profnode

/**
 * One wait-for record: @p dst was blocked on / occupied by resource
 * class @p cls during [t0, t1]; the enabling cause was @p src, which
 * completed its part at @p srcT (srcT <= t1). Records where no cause
 * was active carry src == dst and srcT == t0, so the backward walk
 * self-continues in time.
 */
struct WaitEdge
{
    ProfNode dst = 0;
    ProfNode src = 0;
    Cycle t0 = 0;
    Cycle t1 = 0;
    Cycle srcT = 0;
    WaitClass cls = WaitClass::unattributed;
};

/** One attributed span of the critical path (forward time order). */
struct PathSegment
{
    ProfNode node = 0;
    WaitClass cls = WaitClass::unattributed;
    Cycle t0 = 0;
    Cycle t1 = 0;
};

/** Result of a backward critical-path walk. */
struct Attribution
{
    Cycle makespan = 0;
    ProfNode start = 0;

    /** Cycles per class; indices follow WaitClass. Sums (with
     *  unattributed) to exactly makespan. */
    std::array<Cycle, static_cast<std::size_t>(WaitClass::numClasses)>
        byClass{};

    /** Critical path in forward time order. */
    std::vector<PathSegment> path;

    Cycle attributed() const
    {
        Cycle sum = 0;
        for (std::size_t i = 1; i < byClass.size(); ++i)
            sum += byClass[i];
        return sum;
    }

    /** Attributed share of makespan in [0, 1]. */
    double coverage() const
    {
        return makespan == 0
                   ? 1.0
                   : static_cast<double>(attributed()) /
                         static_cast<double>(makespan);
    }
};

/**
 * The wait-for edge recorder + post-run analyzer. One instance per
 * run; attach with System::setProfiler() before lowering.
 */
class CausalProfiler
{
  public:
    /** Schema tag of the JSON artifact. */
    static constexpr const char *schemaVersion = "cais-profile-v1";

    CausalProfiler();
    ~CausalProfiler();

    CausalProfiler(const CausalProfiler &) = delete;
    CausalProfiler &operator=(const CausalProfiler &) = delete;

    // ---- recording (hot path; callers null-check the pointer) ----

    /** Record an edge with an explicit enabling cause. */
    void record(ProfNode dst, WaitClass cls, Cycle t0, Cycle t1,
                ProfNode src, Cycle src_t);

    /** Record an edge caused by the active ScopedCause (if any). */
    void record(ProfNode dst, WaitClass cls, Cycle t0, Cycle t1);

    /** The active enabling cause (0 if none). */
    ProfNode causeNode() const;
    Cycle causeTime() const;

    /**
     * RAII "current enabling cause": while in scope, cause-less
     * record() calls and packet stamps inherit (node, t). Nests;
     * always restored before the enclosing event returns, so causes
     * never leak across events.
     */
    class ScopedCause
    {
      public:
        ScopedCause(CausalProfiler *p, ProfNode node, Cycle t);
        ~ScopedCause();

        ScopedCause(const ScopedCause &) = delete;
        ScopedCause &operator=(const ScopedCause &) = delete;

      private:
        CausalProfiler *prof;
        ProfNode prevNode = 0;
        Cycle prevT = 0;
    };

    // ---- setup (before run) ----

    /** Register a human-readable node name (kernels, links). */
    void setName(ProfNode node, const std::string &name);

    /** Dense link id for CreditLink hooks; names the node too. */
    std::uint32_t addLink(const std::string &name);

    // ---- analysis (post-run) ----

    /** Sort the recorded edges into canonical order. */
    void finalize();

    /** Backward walk from (@p start, @p makespan). */
    Attribution analyze(ProfNode start, Cycle makespan) const;

    /** Human-readable node name (registered or formatted). */
    std::string nodeName(ProfNode n) const;

    /** Render the cais-profile-v1 JSON artifact. */
    std::string toJson(const Attribution &a,
                       const std::string &strategy,
                       const std::string &workload) const;

    /** toJson() to @p path; returns false on I/O failure. */
    bool writeFile(const std::string &path, const Attribution &a,
                   const std::string &strategy,
                   const std::string &workload) const;

    /**
     * Emit the critical path as flame lanes into the deep trace:
     * one lane per wait class under process @p pid.
     */
    void emitFlameLanes(TraceCollector &tc, int pid,
                        const Attribution &a) const;

  private:
    /** Active-cause register (see ScopedCause). */
    ProfNode cause = 0;
    Cycle causeT = 0;

    std::unordered_map<ProfNode, std::string> names;
    std::uint32_t nextLinkId = 0;

    /** Recorded edges; in canonical order after finalize(). */
    std::vector<WaitEdge> edges;
    bool finalized = false;
};

} // namespace cais

#endif // CAIS_ANALYSIS_CAUSAL_PROFILE_HH
