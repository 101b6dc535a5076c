/**
 * @file
 * Operator-graph lowering: turns an OpGraph into kernels on a System
 * under a configurable execution paradigm. One engine implements all
 * of the paper's execution strategies; the strategy_*.cc translation
 * units define the named option presets (Sec. IV-C's nine baselines
 * plus the CAIS variants).
 *
 * Collective realizations:
 *  - nvls            : NVLS collective kernels (multimem.ld_reduce /
 *                      multimem.st), global barriers between compute
 *                      and comm phases.
 *  - software        : direct P2P collective kernels (two-phase
 *                      RS+AG, ring-equivalent volume), barriers.
 *  - t3              : reduction fused into the producer GEMM as
 *                      per-tile DMA writes (track & trigger); coarse
 *                      barriers between RS / LN / AG stages; AG
 *                      overlapped with the consumer GEMM.
 *  - cais            : communication dissolved into compute kernels
 *                      via compiler-lowered ld.cais / red.cais.
 *  - ladm            : consumer-side plain remote reads (no NVLS,
 *                      no merging), locality-aware placement.
 *
 * Pipelining is orthogonal: with LoweringOptions::pipelinedCollectives
 * the nvls / software comm kernels drop their global barriers and
 * chunk-pipeline with the adjacent GEMMs on an SM partition (CoCoNet,
 * FuseLib and their NVLS variants).
 */

#ifndef CAIS_RUNTIME_EXECUTION_STRATEGY_HH
#define CAIS_RUNTIME_EXECUTION_STRATEGY_HH

#include <string>
#include <vector>

#include "dataflow/fusion_planner.hh"
#include "runtime/system.hh"
#include "workload/gemm_model.hh"

namespace cais
{

/** How collective communication is realized. */
enum class CollectiveImpl : std::uint8_t
{
    nvls,
    software,
    t3,
    cais,
    ladm,
};

/** Full lowering configuration. */
struct LoweringOptions
{
    CollectiveImpl collectives = CollectiveImpl::nvls;

    /** Re-associate RS..AG into AllReduce (basic-TP strategies). */
    bool reassociateToAllReduce = false;

    /** CAIS merging-aware TB coordination (Sec. III-B). */
    bool caisCoordination = false;

    /** CAIS graph-level dataflow optimizer (Sec. III-C). */
    bool graphOptimizer = false;

    /** Asymmetric kernel overlapping within the graph optimizer
     *  (disable for the deep-fusion-only ablation). */
    bool asymmetricOverlap = true;

    /** Comm kernels chunk-pipeline with adjacent GEMMs (overlap
     *  baselines). */
    bool pipelinedCollectives = false;

    /** SM partition comm kernels run on (SM stealing). */
    double commSmFrom = 0.0;
    double commSmTo = 1.0;

    /** Per-comm-TB launch cost (CoCoNet's per-chunk kernels). */
    Cycle perCommTbOverhead = 0;

    /** Extra per-kernel launch cost of a decomposed (multi-launch)
     *  collective pipeline (CoCoNet); fused kernels pay none. */
    Cycle commKernelExtraLaunch = 0;

    /** T3-NVLS: route DMA reductions through the switch reducer. */
    bool t3NvlsReduction = false;

    /** T3-NVLS: realize AllGather with NVLS multicast. */
    bool t3NvlsAllGather = false;
};

/** A named strategy preset. */
struct StrategySpec
{
    std::string name;
    LoweringOptions opts;

    /** Collapse data VCs (CAIS-Partial's missing traffic control). */
    bool unifiedDataVc = false;
};

/** Preset factories (defined in strategy_*.cc). */
StrategySpec makeTpNvls();
StrategySpec makeSpNvls();
StrategySpec makeCoconet(bool with_nvls);
StrategySpec makeFuselib(bool with_nvls);
StrategySpec makeT3(bool with_nvls);
StrategySpec makeLadm();
StrategySpec makeCais();        ///< full CAIS
StrategySpec makeCaisBase();    ///< no coordination, no graph opt
StrategySpec makeCaisPartial(); ///< no traffic control
StrategySpec makeCaisNoCoord(); ///< graph opt without coordination

/** Every strategy of Figs. 11/12, in paper order. */
std::vector<StrategySpec> allStrategies();

/** Lookup by name; fatal() on unknown names. */
StrategySpec strategyByName(const std::string &name);

/** The lowering engine. */
class GraphLowering
{
  public:
    GraphLowering(System &sys, const OpGraph &graph,
                  const LoweringOptions &opts);

    /** Emit all kernels for the graph. */
    void lower();

    /** Kernel that finalizes op's output (for external probes). */
    KernelId opKernel(OpId id) const
    {
        return lastKernel[static_cast<std::size_t>(id)];
    }

    /** Output tensor of an op (nullptr if folded away). */
    const TensorInfo *opTensor(OpId id) const
    {
        return outT[static_cast<std::size_t>(id)];
    }

  private:
    // Per-kind lowering.
    void lowerElementwise(OpId id);
    void lowerAttention(OpId id);
    void lowerGemmCol(OpId id);
    void lowerGemmRow(OpId id);
    void lowerReduceScatter(OpId id);
    void lowerAllGather(OpId id);
    void lowerAllReduceAt(OpId rs_id);

    // Collective kernel emitters.
    void emitNvlsReduceScatter(OpId rs, TensorInfo &partial);
    void emitNvlsAllGather(OpId ag, TensorInfo &in);
    void emitNvlsAllReduce(OpId rs, TensorInfo &partial);
    void emitSoftwareReduceScatter(OpId rs, TensorInfo &partial);
    void emitSoftwareAllGather(OpId ag, TensorInfo &in);
    void emitLadmAllReduce(OpId rs, TensorInfo &partial);

    // Consumer-side staging (CAIS / LADM pull of gathered rows).
    TensorInfo &emitPullStage(OpId ag, TensorInfo &src,
                              RemoteOpKind kind, double sm_from,
                              double sm_to);

    // Helpers.
    const OpNode &node(OpId id) const { return graph.node(id); }
    OpId realInput(OpId id, int idx = 0) const;
    std::vector<KernelId> barrierDeps(OpId id) const;
    TensorInfo &defineOutput(OpId id, TensorLayout layout,
                             std::int64_t cols, int need_factor);
    KernelDesc newKernel(const std::string &name);
    void finishKernel(OpId id, KernelDesc &&k);
    bool consumerIsReduction(OpId id) const;

    /** Fraction-of-SM range for op under the fusion plan. */
    void smRange(OpId id, double &from, double &to) const;
    bool tileDeps(OpId id) const;

    System &sys;
    const OpGraph &graph;
    LoweringOptions opts;
    FusionPlan fusion;
    GemmTiling tiling;
    int G;
    int tileRows;

    std::vector<TensorInfo *> outT;
    std::vector<KernelId> lastKernel;
};

} // namespace cais

#endif // CAIS_RUNTIME_EXECUTION_STRATEGY_HH
