/**
 * @file
 * The assembled multi-GPU system and its kernel execution engine.
 *
 * A System owns the event queue, the NVLink/NVSwitch fabric with its
 * in-switch compute complexes, the GPU models, the tile trackers and
 * the global address map. Execution strategies register tensors and
 * kernels; run() then drives everything to completion:
 *
 *  - a kernel launches once all kernels in kernelDeps have finished
 *    (finished = all TBs retired AND its output tracker complete);
 *  - a TB becomes dispatchable once its tile dependencies are ready,
 *    enabling the fine-grained cross-kernel overlap of Sec. III-C;
 *  - uncoordinated kernels receive a per-GPU start skew, modelling
 *    the execution drift that CAIS's TB coordination removes.
 */

#ifndef CAIS_RUNTIME_SYSTEM_HH
#define CAIS_RUNTIME_SYSTEM_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "dataflow/tile_dependency.hh"
#include "gpu/gpu_core.hh"
#include "switchcompute/switch_compute.hh"

namespace cais
{

class CausalProfiler;

/** Tensor placement across the fabric. */
enum class TensorLayout : std::uint8_t
{
    rowShardedHome, ///< row-block t lives only at its owner GPU
    replicated,     ///< one shared (multimem-style) range, copy per GPU
    perGpuPrivate,  ///< independent per-GPU instance (e.g. partials)
};

/** A registered tensor: tracker + address ranges + tiling. */
struct TensorInfo
{
    std::string name;
    TensorLayout layout = TensorLayout::perGpuPrivate;
    int tracker = invalidId;

    int numTiles = 0;            ///< row-blocks
    std::uint64_t bytesPerTile = 0;
    std::uint64_t totalBytes = 0;

    /** rowShardedHome: first tile of each GPU's shard (size G+1),
     *  balanced so shard sizes differ by at most one tile. */
    std::vector<int> shardStart;

    Addr sharedBase = 0;              ///< replicated layout
    std::vector<Addr> perGpuBase;     ///< private / sharded layouts

    /** Home GPU of tile @p t (rowShardedHome: contiguous shards). */
    GpuId tileOwner(int t) const;

    /** Address of tile @p t (its unique or shared instance). */
    Addr tileAddr(int t) const;

    /** Address of tile @p t in GPU @p g's private instance. */
    Addr tileAddrAt(GpuId g, int t) const;
};

/** System assembly parameters. */
struct SystemConfig
{
    FabricParams fabric;
    GpuParams gpu;
    InSwitchParams inswitch;

    /** Seed of the request-skew RNG (System::skewRng). Kept separate
     *  from GpuParams::seed so the two streams never correlate; the
     *  default reproduces the historical hard-coded stream. */
    std::uint64_t skewSeed = 0xabcdef12345ull;

    /** Event-budget safety valve for run(). */
    std::uint64_t maxEvents = 400ull * 1000 * 1000;
};

/** The full machine plus execution engine. */
class System : public DataArrivalHandler
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System() override;

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    EventQueue &eq() { return queue; }
    Fabric &fabric() { return *fab; }
    const Fabric &fabric() const { return *fab; }
    int numGpus() const { return cfg.fabric.numGpus; }
    GpuCore &gpu(GpuId g) { return *gpus[static_cast<std::size_t>(g)]; }
    const GpuCore &gpu(GpuId g) const
    {
        return *gpus[static_cast<std::size_t>(g)];
    }
    SwitchComputeComplex &switchCompute(SwitchId s)
    {
        return *complexes[static_cast<std::size_t>(s)];
    }
    const SwitchComputeComplex &switchCompute(SwitchId s) const
    {
        return *complexes[static_cast<std::size_t>(s)];
    }
    int numSwitches() const { return cfg.fabric.numSwitches; }
    const SystemConfig &config() const { return cfg; }

    // --- Tensor / tracker management -------------------------------

    /**
     * Register a tensor of @p rows x @p cols elements, tiled in
     * row-blocks of @p tile_rows rows. The tracker requires
     * @p need_factor x tile bytes per (gpu, tile) for readiness
     * (e.g. numGpus for reduction outputs).
     */
    TensorInfo &defineTensor(std::string name, TensorLayout layout,
                             std::int64_t rows, std::int64_t cols,
                             int elem_bytes, int tile_rows,
                             int need_factor);

    TileTracker &tracker(int idx)
    {
        return *trackers[static_cast<std::size_t>(idx)];
    }

    Addr allocLocal(GpuId g, std::uint64_t bytes);
    Addr allocShared(std::uint64_t bytes);

    /** Allocate @p n globally unique TB group ids. */
    GroupId allocGroups(int n);

    // --- Kernel registration / execution ---------------------------

    /** Register a kernel; returns its id (also written into desc). */
    KernelId addKernel(KernelDesc desc);

    KernelDesc &kernel(KernelId k);
    const KernelDesc &kernel(KernelId k) const;

    std::size_t numKernels() const { return kernels.size(); }

    /** Run every registered kernel to completion. */
    void run();

    Cycle now() const { return queue.now(); }

    /** Sampling hook for instrumented runs (see
     *  EventQueue::setPeriodicObserver). */
    void setPeriodicObserver(Cycle period, std::function<void(Cycle)> fn);
    Cycle makespan() const { return finishedAt; }
    Cycle kernelStartTime(KernelId k) const;
    Cycle kernelFinishTime(KernelId k) const;

    /** Per-GPU execution span of a kernel (first TB dispatch to last
     *  TB retirement); {0, 0} if the GPU ran none of its TBs. */
    std::pair<Cycle, Cycle> kernelGpuSpan(KernelId k, GpuId g) const;

    // --- Metrics ----------------------------------------------------

    /**
     * Register the whole machine in @p reg (DESIGN.md §6d):
     * eventq.executed, switch<S>.{nvls,merge,sync,chip}.*,
     * gpu<G>.{hub,hbm,sched,sync}.* and link.{up,dn}.*. Registration
     * is read-only; call once per System per registry.
     */
    void registerMetrics(MetricRegistry &reg) const;

    /** Attach @p h to every switch's merge and sync engines. */
    void setTraceHooks(SwitchTraceHooks *h);

    /**
     * Attach the causal wait-for profiler (DESIGN.md §6g) to every
     * layer: fabric links and switches, GPU hubs/HBM/TB contexts,
     * and tile trackers (existing and future). Call before run();
     * nullptr is a no-op (profiling stays off).
     */
    void setProfiler(CausalProfiler *pr);

    CausalProfiler *profiler() { return prof; }

    /** Mean SM-slot occupancy across GPUs over the run. */
    double gpuUtilization() const;

    // DataArrivalHandler
    void onDataArrival(GpuId gpu, Addr addr, std::uint32_t bytes,
                       int contribs) override;

  private:
    struct KernelState;
    struct TbWait;

    void tryLaunch(KernelState &ks);
    void launchOnGpu(KernelState &ks, GpuId g);
    void enqueueTb(KernelState &ks, GpuId g, int tb_idx);
    void dispatchTb(KernelState &ks, GpuId g, int tb_idx, int slot,
                    Cycle ready_at);
    void onTbProduced(KernelState &ks, TbRun &tb);
    void onTbFinished(KernelState &ks, GpuId g, int tb_idx, int slot,
                      TbRun *run);
    void onKernelTbsDone(KernelState &ks);
    void maybeFinishKernel(KernelState &ks);
    void reportDeadlock() const;

    SystemConfig cfg;
    EventQueue queue;
    std::unique_ptr<Fabric> fab;
    std::vector<std::unique_ptr<SwitchComputeComplex>> complexes;
    std::vector<std::unique_ptr<GpuCore>> gpus;

    std::vector<std::unique_ptr<TileTracker>> trackers;
    std::vector<std::unique_ptr<TensorInfo>> tensors;
    AddressMap addrMap;

    std::vector<Addr> localBump;
    Addr sharedBump = 0;
    GroupId nextGroup = 0;

    std::vector<std::unique_ptr<KernelState>> kernels;
    int unfinishedKernels = 0;
    Cycle finishedAt = 0;
    Rng skewRng;
    CausalProfiler *prof = nullptr;
};

} // namespace cais

#endif // CAIS_RUNTIME_SYSTEM_HH
