/**
 * @file
 * Determinism regression for the event core: repeated end-to-end runs
 * of one configuration must produce bit-identical results — makespan,
 * utilizations, merge-unit counters and per-kernel timings.
 */

#include <gtest/gtest.h>

#include "runtime/execution_strategy.hh"
#include "runtime/simulation_driver.hh"
#include "workload/transformer.hh"

using namespace cais;

namespace
{

RunConfig
smallConfig()
{
    RunConfig cfg;
    cfg.numGpus = 4;
    cfg.numSwitches = 2;
    return cfg;
}

LlmConfig
smallModel()
{
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    m.batch = 1;
    return m;
}

/** End-to-end run harvested through runGraph. */
RunResult
runSmall(const char *strategy, SubLayerId sub)
{
    return runGraph(strategyByName(strategy),
                    buildSubLayer(smallModel(), sub), smallConfig(),
                    subLayerName(sub));
}

/** Field-by-field bit equality of two harvested results. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.avgUtil, b.avgUtil);
    EXPECT_EQ(a.upUtil, b.upUtil);
    EXPECT_EQ(a.dnUtil, b.dnUtil);
    EXPECT_EQ(a.gpuUtil, b.gpuUtil);
    EXPECT_EQ(a.wireBytes, b.wireBytes);
    EXPECT_EQ(a.staggerUs, b.staggerUs);
    EXPECT_EQ(a.staggerSamples, b.staggerSamples);
    EXPECT_EQ(a.peakMergeBytes, b.peakMergeBytes);
    EXPECT_EQ(a.mergeLoadReqs, b.mergeLoadReqs);
    EXPECT_EQ(a.mergeRedReqs, b.mergeRedReqs);
    EXPECT_EQ(a.mergeLoadHits, b.mergeLoadHits);
    EXPECT_EQ(a.mergeRedHits, b.mergeRedHits);
    EXPECT_EQ(a.mergeFetches, b.mergeFetches);
    EXPECT_EQ(a.lruEvictions, b.lruEvictions);
    EXPECT_EQ(a.timeoutEvictions, b.timeoutEvictions);
    EXPECT_EQ(a.throttleHints, b.throttleHints);
    EXPECT_EQ(a.sessionsClosed, b.sessionsClosed);
    EXPECT_EQ(a.commKernelCycles, b.commKernelCycles);
    EXPECT_EQ(a.computeKernelCycles, b.computeKernelCycles);
    ASSERT_EQ(a.kernels.size(), b.kernels.size());
    for (std::size_t k = 0; k < a.kernels.size(); ++k) {
        EXPECT_EQ(a.kernels[k].name, b.kernels[k].name);
        EXPECT_EQ(a.kernels[k].start, b.kernels[k].start);
        EXPECT_EQ(a.kernels[k].finish, b.kernels[k].finish);
    }
    EXPECT_EQ(a.utilSeries, b.utilSeries);
}

} // namespace

TEST(EventDeterminism, RepeatedRunsAreBitIdentical)
{
    RunResult first = runSmall("CAIS", SubLayerId::L2);
    RunResult second = runSmall("CAIS", SubLayerId::L2);
    expectIdentical(first, second);
}
