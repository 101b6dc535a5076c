/**
 * @file
 * End-to-end tests of the observability layer's two contracts
 * (DESIGN.md §6d):
 *
 *  1. Instrumentation is determinism-neutral: a run with deep tracing
 *     and the metrics report enabled is bit-identical -- makespan,
 *     eventsExecuted, every counter -- to the same run with both off.
 *  2. The artifacts are well-formed: the metrics report parses, is
 *     schema-versioned and carries per-switch merge/sync metrics; the
 *     trace parses and contains the switch-side lanes.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "analysis/report.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "runtime/simulation_driver.hh"
#include "workload/transformer.hh"

namespace
{

using namespace cais;

/** The Fig. 13-style configuration: every random stream exercised. */
RunConfig
obsConfig()
{
    RunConfig cfg;
    cfg.numGpus = 4;
    cfg.numSwitches = 2;
    cfg.unboundedMergeTable = true;
    cfg.gpu.maxStartSkew = 35 * cyclesPerUs;
    cfg.gpu.jitterSigma = 0.05;
    return cfg;
}

RunResult
runObs(const RunConfig &cfg)
{
    OpGraph g =
        buildSubLayer(llama7B().scaled(0.25, 0.25), SubLayerId::L1);
    return runGraph(strategyByName("CAIS"), g, cfg, "L1");
}

/** Same contract as the Fig. 13 determinism suite: exact equality on
 *  every field, doubles included. */
void
expectBitIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.wireBytes, b.wireBytes);
    EXPECT_EQ(a.peakMergeBytes, b.peakMergeBytes);
    EXPECT_EQ(a.staggerSamples, b.staggerSamples);
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
    EXPECT_EQ(a.staggerUs, b.staggerUs);
    EXPECT_EQ(a.avgUtil, b.avgUtil);
    EXPECT_EQ(a.gpuUtil, b.gpuUtil);
    ASSERT_EQ(a.kernels.size(), b.kernels.size());
    for (std::size_t i = 0; i < a.kernels.size(); ++i) {
        EXPECT_EQ(a.kernels[i].start, b.kernels[i].start);
        EXPECT_EQ(a.kernels[i].finish, b.kernels[i].finish);
    }
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

TEST(Observability, TracingAndMetricsArePerturbationFree)
{
    RunConfig plain = obsConfig();
    RunResult base = runObs(plain);

    RunConfig instrumented = obsConfig();
    instrumented.tracePath = "/tmp/cais_test_obs_trace.json";
    instrumented.metricsPath = "/tmp/cais_test_obs_metrics.json";
    instrumented.traceSampleCycles = 500; // dense sampling on purpose
    std::remove(instrumented.tracePath.c_str());
    std::remove(instrumented.metricsPath.c_str());
    RunResult traced = runObs(instrumented);

    expectBitIdentical(base, traced);

    std::remove(instrumented.tracePath.c_str());
    std::remove(instrumented.metricsPath.c_str());
}

TEST(Observability, MetricsReportCarriesSwitchSideMetrics)
{
    RunConfig cfg = obsConfig();
    cfg.metricsPath = "/tmp/cais_test_obs_report.json";
    std::remove(cfg.metricsPath.c_str());
    RunResult r = runObs(cfg);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(jsonParse(slurp(cfg.metricsPath), doc, error))
        << error;
    EXPECT_EQ(doc.getString("schema"), metricsSchemaVersion);

    // The result echo matches the in-process RunResult exactly.
    const JsonValue *result = doc.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_DOUBLE_EQ(result->getNumber("makespan"),
                     static_cast<double>(r.makespan));
    EXPECT_DOUBLE_EQ(result->getNumber("eventsExecuted"),
                     static_cast<double>(r.eventsExecuted));

    // Per-switch-port merge, eviction and sync metrics are present.
    const JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_NE(metrics->find("switch0.merge.loadReqs"), nullptr);
    EXPECT_NE(metrics->find("switch0.merge.port0.peakBytes"), nullptr);
    EXPECT_NE(metrics->find("switch0.merge.evictions.lru"), nullptr);
    EXPECT_NE(metrics->find("switch0.sync.requests"), nullptr);
    EXPECT_NE(metrics->find("switch1.chip.forwarded"), nullptr);
    EXPECT_NE(metrics->find("gpu0.hbm.bytes"), nullptr);
    EXPECT_NE(metrics->find("eventq.executed"), nullptr);

    // And the kernel timeline round-trips.
    const JsonValue *kernels = doc.find("kernels");
    ASSERT_NE(kernels, nullptr);
    EXPECT_EQ(kernels->elems.size(), r.kernels.size());

    std::remove(cfg.metricsPath.c_str());
}

TEST(Observability, DeepTraceHasSwitchLanesAndCounters)
{
    RunConfig cfg = obsConfig();
    cfg.tracePath = "/tmp/cais_test_obs_deep_trace.json";
    std::remove(cfg.tracePath.c_str());
    runObs(cfg);

    std::string text = slurp(cfg.tracePath);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(jsonParse(text, doc, error)) << error;
    ASSERT_NE(doc.find("traceEvents"), nullptr);
    EXPECT_FALSE(doc.find("traceEvents")->elems.empty());

    // Switch-side lanes: merge-session spans, the group-sync lane,
    // the per-port occupancy counter track, per-VC queue depth and
    // the HBM bandwidth track.
    EXPECT_NE(text.find("\"cat\":\"merge-load\""), std::string::npos);
    EXPECT_NE(text.find("group sync"), std::string::npos);
    EXPECT_NE(text.find("table B"), std::string::npos);
    EXPECT_NE(text.find("downlink depth"), std::string::npos);
    EXPECT_NE(text.find("HBM B/cyc"), std::string::npos);
    EXPECT_NE(text.find("link util %"), std::string::npos);

    std::remove(cfg.tracePath.c_str());
}

TEST(Observability, ProfiledTraceNamesEveryProcessOnce)
{
    // The critical-path flame lanes get their own process after the
    // last switch; they must not share a pid (and lane names) with a
    // switch's merge-port lanes.
    RunConfig cfg = obsConfig();
    cfg.tracePath = "/tmp/cais_test_obs_profiled_trace.json";
    cfg.profilePath = "/tmp/cais_test_obs_profiled_profile.json";
    runObs(cfg);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(jsonParse(slurp(cfg.tracePath), doc, error)) << error;
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);

    std::map<int, std::vector<std::string>> process_names;
    std::map<std::pair<int, int>, int> thread_names;
    std::set<int> used_pids;
    std::set<int> critical_pids;
    int critical_spans = 0;
    for (const JsonValue &e : events->elems) {
        int pid = static_cast<int>(e.getNumber("pid"));
        int tid = static_cast<int>(e.getNumber("tid"));
        used_pids.insert(pid);
        std::string name = e.getString("name");
        if (e.getString("ph") == "M") {
            std::string label = e.find("args")->getString("name");
            if (name == "process_name")
                process_names[pid].push_back(label);
            else if (name == "thread_name")
                ++thread_names[{pid, tid}];
        } else if (e.getString("cat") == "critical-path") {
            ++critical_spans;
            critical_pids.insert(pid);
        }
    }

    for (int pid : used_pids) {
        ASSERT_EQ(process_names[pid].size(), 1u) << "pid " << pid;
    }
    for (const auto &[lane, n] : thread_names)
        EXPECT_EQ(n, 1) << "pid " << lane.first << " tid "
                        << lane.second;
    EXPECT_GT(critical_spans, 0);
    ASSERT_EQ(critical_pids.size(), 1u);
    int crit = *critical_pids.begin();
    EXPECT_EQ(process_names[crit].front(), "critical path");
    EXPECT_EQ(crit, 2 + cfg.numSwitches);

    std::remove(cfg.tracePath.c_str());
    std::remove(cfg.profilePath.c_str());
}

TEST(Observability, SamplePeriodDoesNotChangeResults)
{
    // Different sampling periods change only how many counter points
    // land in the trace, never the simulation itself.
    RunConfig coarse = obsConfig();
    coarse.tracePath = "/tmp/cais_test_obs_coarse.json";
    coarse.traceSampleCycles = 10000;
    RunConfig fine = obsConfig();
    fine.tracePath = "/tmp/cais_test_obs_fine.json";
    fine.traceSampleCycles = 100;

    RunResult a = runObs(coarse);
    RunResult b = runObs(fine);
    expectBitIdentical(a, b);

    std::remove(coarse.tracePath.c_str());
    std::remove(fine.tracePath.c_str());
}

TEST(MetricsReport, WriteToFullDeviceFails)
{
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no /dev/full";
    // The report fits in the stdio buffer, so the write fails only
    // when the file is closed.
    RunConfig cfg;
    RunResult r;
    MetricRegistry reg;
    EXPECT_FALSE(
        writeMetricsReport("/dev/full", cfg, r, reg.snapshot()));
}

} // namespace
