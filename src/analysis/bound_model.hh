/**
 * @file
 * cais-bound: static analytical performance-bound model (DESIGN.md
 * §6h). From a constructed, lowered — but not yet run — System, the
 * analyzer derives per-resource lower bounds on the makespan:
 *
 *  - smCompute: per-GPU SM roofline. Every thread block's compute
 *    cycles (the gemm_model tile cost) must be served by the GPU's
 *    numSms x ctasPerSm CTA slots; with per-TB jitter enabled the
 *    multiplier is clamped at 0.5, so half the nominal work is the
 *    guaranteed floor.
 *  - hbm: fabric-facing HBM traffic each GPU must serialize — remote
 *    reads served at the home GPU, remote and merged writes landing
 *    there. Mergeable traffic is counted once per unique chunk
 *    (perfect-merging assumption), so the bound never exceeds what
 *    the merge tier can save.
 *  - linkSerialization: wire bytes each GPU must inject (requests and
 *    payload pushes) and absorb (pull responses, landing writes)
 *    against its aggregate per-direction injection bandwidth. The
 *    aggregate form is routing-agnostic: however chunks spread over
 *    rails or switches, the per-GPU bundle moves at most
 *    perGpuBytesPerCycle per direction.
 *  - mergeService: the merge tier must move every unique mergeable
 *    chunk at least once between the home port and the merge unit
 *    (fetches up, merged writes down); per home GPU, per direction.
 *    A strict subset of the link traffic, reported separately to
 *    quantify the in-switch merging floor.
 *  - criticalPath: the longest path through the kernel dependency
 *    graph, each kernel weighted by its launch overhead plus
 *    max(compute floor, pull round-trip floor).
 *
 * Every term deliberately under-counts (pads, headers of merged
 * packets, NVLS fan-out and protocol latencies are dropped when their
 * delivery guarantee is not structural), so the composite bound is
 * sound: a simulated makespan below it is a simulator bug, which is
 * exactly what verify rule V8 checks post-run.
 */

#ifndef CAIS_ANALYSIS_BOUND_MODEL_HH
#define CAIS_ANALYSIS_BOUND_MODEL_HH

#include <string>

#include "common/types.hh"

namespace cais
{

class JsonWriter;
class System;

/** Schema tag of the JSON document cais_matrix --bound emits. */
inline constexpr const char *boundSchemaVersion = "cais-bound-v1";

/**
 * Seeded-defect hooks (testing the V8 gate, like verify's
 * extraCouplings): scales < 1 shrink the modelled SM / link
 * throughput, inflating the bound so V8 trips on a healthy run.
 */
struct BoundOptions
{
    double smThroughputScale = 1.0;
    double linkBandwidthScale = 1.0;
};

/** Per-resource lower bounds on the makespan, in cycles. */
struct BoundResult
{
    Cycle smCompute = 0;
    Cycle hbm = 0;
    Cycle linkSerialization = 0;
    Cycle mergeService = 0;
    Cycle criticalPath = 0;

    /** max over the resource classes. */
    Cycle composite = 0;

    /** Name of the binding (maximal) resource class. */
    std::string binding;

    /** Bound of the class named @p resource; 0 for unknown names. */
    Cycle byName(const std::string &resource) const;

    /** cais-bound-v1 JSON document (common/json.hh writer). */
    std::string json() const;

    /** Write this result as one JSON object into @p w (used by
     *  json() and by cais_matrix --bound's aggregate document). */
    void writeJson(JsonWriter &w) const;
};

/**
 * Compute the static bound for a constructed System. Read-only and
 * event-free: it walks the kernel descriptors and the configuration,
 * so calling it before or after run() yields the same result and a
 * bounded run stays bit-identical to an unbounded one.
 */
BoundResult computeBound(const System &sys,
                         const BoundOptions &opts = {});

} // namespace cais

#endif // CAIS_ANALYSIS_BOUND_MODEL_HH
