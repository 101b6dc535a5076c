/**
 * @file
 * Kernel and thread-block descriptors.
 *
 * A KernelDesc is the unit the execution strategies schedule: one
 * logical operator kernel with a per-GPU grid of thread blocks. Each
 * TbDesc carries a compute cost, remote communication ops (pull side
 * issued with compute, push side issued after), CAIS TB-group
 * membership, fine-grained tile dependencies, and the tile it
 * produces. These are *descriptors*: the runtime engine interprets
 * them against the GPU and fabric models.
 */

#ifndef CAIS_GPU_KERNEL_HH
#define CAIS_GPU_KERNEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace cais
{

/** Kinds of remote operations a TB can issue. */
enum class RemoteOpKind : std::uint8_t
{
    plainLoad,    ///< ld.global to a peer GPU (P2P read)
    plainWrite,   ///< st.global to a peer GPU (P2P write)
    nvlsLdReduce, ///< multimem.ld_reduce (pull, in-switch reduce)
    nvlsSt,       ///< multimem.st (push, in-switch multicast)
    caisLoad,     ///< ld.cais (pull, mergeable)
    caisRed,      ///< red.cais (push, mergeable)
};

/** True for pull-mode kinds (issued alongside compute). */
bool isPullKind(RemoteOpKind k);

/** True for kinds the compiler may lower to CAIS variants. */
bool isCaisKind(RemoteOpKind k);

/** One contiguous remote access stream of a thread block. */
struct RemoteOp
{
    RemoteOpKind kind = RemoteOpKind::plainLoad;
    Addr base = 0;
    std::uint64_t bytes = 0;

    /** Expected participants for merge/reduction sessions. */
    int expected = 0;

    /** Data moves under a software collective protocol (in-band
     *  flags/padding): the wire carries ~1/3 extra bytes. */
    bool protocolPad = false;
};

/** Reference to a tile of a tracked tensor, at a specific GPU. */
struct TileRef
{
    int tracker = invalidId; ///< index into the system's trackers
    int tile = 0;
    GpuId atGpu = invalidId;
};

/** One thread block of a kernel. */
struct TbDesc
{
    /** Compute cost in cycles (before jitter). */
    Cycle computeCycles = 0;

    /** Remote reads issued with compute (overlappable). */
    std::vector<RemoteOp> pullOps;

    /** Remote writes/reductions issued after compute. */
    std::vector<RemoteOp> pushOps;

    /** CAIS TB group (same blockIdx across GPUs); invalidId if none. */
    GroupId group = invalidId;

    /** Tile contributed to the kernel's tracker on completion at the
     *  executing GPU; -1 when the kernel output is pushed remotely. */
    int producesTile = -1;

    /** Bytes credited to producesTile when this TB completes. */
    std::uint64_t produceBytes = 0;

    /** Tiles that must be ready before this TB may launch. */
    std::vector<TileRef> deps;
};

/** One logical operator kernel across all GPUs. */
struct KernelDesc
{
    KernelId id = invalidId;
    std::string name;

    /** Per-GPU grids, indexed by GPU id. */
    std::vector<std::vector<TbDesc>> grids;

    /** Tracker index fed by this kernel's output; invalidId if none. */
    int producesTracker = invalidId;

    /** Merging-aware TB coordination flags (Sec. III-B). */
    bool preLaunchSync = false;
    bool preAccessSync = false;

    /** SM partition [smFrom, smTo) as a fraction of the SM array,
     *  used by asymmetric kernel overlapping (Sec. III-C.2). */
    double smFrom = 0.0;
    double smTo = 1.0;

    /** Kernels that must fully complete before this one launches
     *  (the coarse global barrier of communication-centric designs). */
    std::vector<KernelId> kernelDeps;

    /** Launch overhead charged once per GPU at kernel start. */
    Cycle launchOverhead = 0;

    /** Communication kernel (collective), for comm/compute-time
     *  accounting (Fig. 2). */
    bool commKernel = false;

    /** Dispatch priority (lower first); comm/staging TBs use 0 so
     *  queued compute waves cannot starve the data pipeline. */
    int schedPriority = 1;

    /** Total thread blocks across GPUs. */
    std::size_t totalTbs() const;

    /** Sum of compute cycles over all TBs on @p gpu. */
    Cycle computeWork(GpuId gpu) const;

    void validate(int num_gpus) const;
};

} // namespace cais

#endif // CAIS_GPU_KERNEL_HH
