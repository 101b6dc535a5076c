/**
 * @file
 * Thread-block execution state machine.
 *
 * A TbRun models one resident CTA:
 *
 *   dispatch -> [pre-launch sync] -> {compute || [pre-access sync ->]
 *   pull ops} -> push ops injected -> retire
 *
 * Pull-mode communication overlaps compute inside the TB (the paper's
 * "TB-level local barrier" instead of a global one); push ops are
 * issued after compute and the CTA retires once they are on the wire.
 * Compute time receives a per-(GPU, TB) jitter multiplier modelling
 * the scheduling drift that staggers requests across GPUs.
 */

#ifndef CAIS_GPU_THREAD_BLOCK_HH
#define CAIS_GPU_THREAD_BLOCK_HH

#include <functional>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "gpu/hub.hh"
#include "gpu/kernel.hh"
#include "gpu/synchronizer.hh"

namespace cais
{

/** Shared per-GPU context handed to every TbRun. */
struct TbRunContext
{
    EventQueue *eq = nullptr;
    GpuHub *hub = nullptr;
    Synchronizer *sync = nullptr;
    Rng *rng = nullptr;
    double jitterSigma = 0.0;
    int numGpus = 0;

    /** Causal profiler (DESIGN.md §6g); null when not profiling. */
    CausalProfiler *prof = nullptr;
};

/** One in-flight thread block. */
class TbRun
{
  public:
    /**
     * @param on_produced fired when the TB's output tile becomes
     *        locally available (compute finished).
     * @param on_finished fired when the CTA retires (slot reusable);
     *        the callee may destroy this TbRun from inside.
     */
    TbRun(const TbRunContext &ctx, GpuId gpu, const KernelDesc &kernel,
          const TbDesc &tb, TbId index,
          std::function<void(TbRun &)> on_produced,
          std::function<void(TbRun &)> on_finished);

    /** Begin execution (the CTA already owns its slot). */
    void start();

    GpuId gpu() const { return gpuId; }
    TbId index() const { return idx; }

    /** Diagnostic state string for stall reports. */
    std::string stateStr() const;
    const TbDesc &desc() const { return tb; }

  private:
    void afterLaunchSync();
    void issueLoads();
    void onComputeDone();
    void onLoadsDone();
    void maybeAdvance();
    void issuePushes();
    void finish();

    /** This TB's profile-graph node. */
    std::uint64_t profNode() const;

    TbRunContext ctx;
    GpuId gpuId;
    const KernelDesc &kernel;
    const TbDesc &tb;
    TbId idx;

    std::function<void(TbRun &)> onProduced;
    std::function<void(TbRun &)> onFinished;

    bool computeDone = false;
    bool loadsDone = false;
    bool advanced = false;
    bool pushSynced = false;

    Cycle startAt = 0;      ///< profiler: compute-edge origin
    Cycle loadsIssueAt = 0; ///< profiler: load-wait origin
};

} // namespace cais

#endif // CAIS_GPU_THREAD_BLOCK_HH
