/**
 * @file
 * Baselines 4 and 7: FuseLib [44] and FuseLib-NVLS. Like CoCoNet,
 * FuseLib overlaps GEMM with the collective, but executes within a
 * single fused persistent kernel: no per-chunk launch overhead, at
 * the cost of a static SM partition between compute and
 * communication warps.
 */

#include "runtime/execution_strategy.hh"

namespace cais
{

StrategySpec
makeFuselib(bool with_nvls)
{
    StrategySpec s;
    s.name = with_nvls ? "FuseLib-NVLS" : "FuseLib";
    s.opts.collectives = with_nvls ? CollectiveImpl::nvls
                                   : CollectiveImpl::software;
    s.opts.reassociateToAllReduce = true;
    s.opts.pipelinedCollectives = true;
    s.opts.commSmFrom = 0.8;
    s.opts.commSmTo = 1.0;
    s.opts.perCommTbOverhead = 0;
    return s;
}

} // namespace cais
