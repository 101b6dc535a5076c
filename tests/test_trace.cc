/** @file Tests for the Chrome-trace exporter and its driver wiring. */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "analysis/trace.hh"
#include "runtime/simulation_driver.hh"
#include "workload/transformer.hh"

using namespace cais;

TEST(Trace, SpansRenderWithMicrosecondTimestamps)
{
    TraceCollector tc;
    tc.addSpan("gemm", "compute", 0, 2, 1000, 5000);
    std::string json = tc.toJson();
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"gemm\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":1"), std::string::npos);   // 1 us
    EXPECT_NE(json.find("\"dur\":4"), std::string::npos);  // 4 us
    EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
}

TEST(Trace, CountersAndMetadata)
{
    TraceCollector tc;
    tc.nameProcess(1, "fabric");
    tc.nameLane(0, 3, "GPU 3");
    tc.addCounter("util", 1, 2000, 87.5);
    tc.addInstant("evict", "merge", 1, 0, 500);
    std::string json = tc.toJson();
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("GPU 3"), std::string::npos);
    EXPECT_NE(json.find("\"value\":87.5"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_EQ(tc.numEvents(), 4u);
}

TEST(Trace, EscapesQuotesAndBackslashes)
{
    TraceCollector tc;
    tc.addSpan("a\"b\\c", "x", 0, 0, 0, 1);
    std::string json = tc.toJson();
    EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
}

namespace
{

/**
 * Events whose canonical order is decided at each sort key in turn
 * (ts, pid, tid, phase, category, name, dur, value, meta), recorded
 * in a scrambled order.
 */
void
addOrderFixture(TraceCollector &tc)
{
    tc.addCounter("k", 0, 7000, 2.5);                  // value
    tc.addSpan("k", "c", 0, 0, 6000, 9000);            // dur
    tc.nameLane(2, 1, "lane b");                       // meta
    tc.addInstant("b", "c", 0, 0, 5000);               // name
    tc.addSpan("k", "merge-red", 0, 0, 4000, 5000);    // category
    tc.addSpan("k", "c", 1, 0, 3000, 4000);            // phase
    tc.addSpan("k", "c", 0, 3, 2000, 3000);            // tid
    tc.addSpan("k", "c", 1, 0, 1000, 2000);            // pid
    tc.addSpan("k", "c", 0, 0, 123456789, 123456889);  // ts
    tc.addCounter("k", 0, 7000, -1.0);
    tc.addSpan("k", "c", 0, 0, 6000, 6500);
    tc.nameProcess(2, "switch 0");
    tc.addInstant("a \"q\" \\ z", "c", 0, 0, 5000);
    tc.addSpan("k", "", 0, 0, 4000, 5000);
    tc.addInstant("k", "c", 1, 0, 3000);
    tc.addSpan("k", "c", 0, 1, 2000, 3000);
    tc.addSpan("k", "c", 0, 0, 1000, 2000);
    tc.addCounter("k", 0, 7000, 0.1);
    tc.nameLane(2, 1, "lane a");
    tc.addInstant("a\tb", "c", 0, 0, 5000);
    tc.addSpan("k", "merge-load", 0, 0, 4000, 5000);
    tc.addCounter("k", 1, 3000, 1.0);
    tc.nameLane(2, 0, "x");
    tc.addSpan("k", "c", 0, 0, 6000, 9000);            // exact twin
}

/** 64-bit FNV-1a digest of the file at @p path, and its size. */
std::pair<std::uint64_t, std::size_t>
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return {h, bytes.size()};
}

} // namespace

TEST(Trace, CanonicalOrderIsPinned)
{
    // Rendered by the string-keyed stable sort this order was first
    // defined with; any later sort must reproduce it byte for byte.
    const char *want =
        R"({"displayTimeUnit":"ns","traceEvents":[)"
        R"({"ph":"M","pid":2,"tid":0,"ts":0,"name":"process_name","args":{"name":"switch 0"}},)"
        R"({"ph":"M","pid":2,"tid":0,"ts":0,"name":"thread_name","args":{"name":"x"}},)"
        R"({"ph":"M","pid":2,"tid":1,"ts":0,"name":"thread_name","args":{"name":"lane a"}},)"
        R"({"ph":"M","pid":2,"tid":1,"ts":0,"name":"thread_name","args":{"name":"lane b"}},)"
        R"({"ph":"X","pid":0,"tid":0,"ts":1,"dur":1,"name":"k","cat":"c"},)"
        R"({"ph":"X","pid":1,"tid":0,"ts":1,"dur":1,"name":"k","cat":"c"},)"
        R"({"ph":"X","pid":0,"tid":1,"ts":2,"dur":1,"name":"k","cat":"c"},)"
        R"({"ph":"X","pid":0,"tid":3,"ts":2,"dur":1,"name":"k","cat":"c"},)"
        R"({"ph":"C","pid":1,"tid":0,"ts":3,"name":"k","args":{"value":1}},)"
        R"({"ph":"X","pid":1,"tid":0,"ts":3,"dur":1,"name":"k","cat":"c"},)"
        R"({"ph":"i","pid":1,"tid":0,"ts":3,"s":"t","name":"k","cat":"c"},)"
        R"({"ph":"X","pid":0,"tid":0,"ts":4,"dur":1,"name":"k","cat":""},)"
        R"({"ph":"X","pid":0,"tid":0,"ts":4,"dur":1,"name":"k","cat":"merge-load"},)"
        R"({"ph":"X","pid":0,"tid":0,"ts":4,"dur":1,"name":"k","cat":"merge-red"},)"
        R"({"ph":"i","pid":0,"tid":0,"ts":5,"s":"t","name":"a\tb","cat":"c"},)"
        R"({"ph":"i","pid":0,"tid":0,"ts":5,"s":"t","name":"a \"q\" \\ z","cat":"c"},)"
        R"({"ph":"i","pid":0,"tid":0,"ts":5,"s":"t","name":"b","cat":"c"},)"
        R"({"ph":"X","pid":0,"tid":0,"ts":6,"dur":0.5,"name":"k","cat":"c"},)"
        R"({"ph":"X","pid":0,"tid":0,"ts":6,"dur":3,"name":"k","cat":"c"},)"
        R"({"ph":"X","pid":0,"tid":0,"ts":6,"dur":3,"name":"k","cat":"c"},)"
        R"({"ph":"C","pid":0,"tid":0,"ts":7,"name":"k","args":{"value":-1}},)"
        R"({"ph":"C","pid":0,"tid":0,"ts":7,"name":"k","args":{"value":0.10000000000000001}},)"
        R"({"ph":"C","pid":0,"tid":0,"ts":7,"name":"k","args":{"value":2.5}},)"
        R"({"ph":"X","pid":0,"tid":0,"ts":123456.789,"dur":0.10000000000000001,"name":"k","cat":"c"}]})";
    TraceCollector tc;
    addOrderFixture(tc);
    EXPECT_EQ(tc.toJson(), want);
}

TEST(Trace, WriteToFullDeviceFails)
{
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no /dev/full";
    // A one-event trace fits in the stdio buffer, so the write fails
    // only when the file is closed.
    TraceCollector tc;
    tc.addSpan("gemm", "compute", 0, 0, 0, 1000);
    EXPECT_FALSE(tc.writeFile("/dev/full"));
}

TEST(Trace, DriverArtifactsMatchGoldenBytes)
{
    // Pins every byte of the three run artifacts: trace, metrics
    // report and causal profile of a small CAIS L1 run, on a flat
    // fabric and on a leaf/spine one (tiered link names, metric
    // paths and profiler link ids). Only a deliberate change to an
    // artifact's content re-records these.
    struct Golden
    {
        std::uint64_t digest;
        std::size_t bytes;
    };
    struct Case
    {
        std::string topology;
        int gpus, switches;
        Golden trace, metrics, profile;
    };
    const Case cases[] = {
        {"", 4, 2,
         {6709076873536755768ull, 109685u},
         {804396146166298047ull, 12553u},
         {11266103646538249864ull, 3287u}},
        {"rail-optimized-2node", 16, 12,
         {12895293409115996183ull, 1019412u},
         {13130338348964279427ull, 106098u},
         {10821547231866355386ull, 5595u}},
    };
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    m.batch = 1;
    std::string dir = ::testing::TempDir();
    for (const Case &c : cases) {
        SCOPED_TRACE(c.topology.empty() ? "flat" : c.topology);
        RunConfig cfg;
        cfg.topology = c.topology;
        cfg.numGpus = c.gpus;
        cfg.numSwitches = c.switches;
        cfg.tracePath = dir + "cais_golden_trace.json";
        cfg.metricsPath = dir + "cais_golden_metrics.json";
        cfg.profilePath = dir + "cais_golden_profile.json";

        OpGraph g = buildSubLayer(m, SubLayerId::L1);
        runGraph(strategyByName("CAIS"), g, cfg, "L1");

        const std::pair<const std::string *, Golden> files[] = {
            {&cfg.tracePath, c.trace},
            {&cfg.metricsPath, c.metrics},
            {&cfg.profilePath, c.profile}};
        for (const auto &[path, want] : files) {
            auto [digest, bytes] = fileDigest(*path);
            EXPECT_EQ(bytes, want.bytes) << *path;
            EXPECT_EQ(digest, want.digest) << *path;
            std::remove(path->c_str());
        }
    }
}

TEST(Trace, DriverWritesLoadableFile)
{
    RunConfig cfg;
    cfg.numGpus = 4;
    cfg.numSwitches = 2;
    cfg.tracePath = "/tmp/cais_test_trace.json";
    std::remove(cfg.tracePath.c_str());

    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    m.batch = 1;
    OpGraph g = buildSubLayer(m, SubLayerId::L1);
    runGraph(strategyByName("CAIS"), g, cfg, "L1");

    std::ifstream in(cfg.tracePath);
    ASSERT_TRUE(in.good());
    std::string json((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Kernel spans for the fused CAIS pipeline and the util counter.
    EXPECT_NE(json.find("gemm-rs"), std::string::npos);
    EXPECT_NE(json.find("stage"), std::string::npos);
    EXPECT_NE(json.find("link util %"), std::string::npos);
    EXPECT_NE(json.find("traceEvents"), std::string::npos);
    std::remove(cfg.tracePath.c_str());
}

TEST(Trace, KernelGpuSpansAreWithinKernelLifetime)
{
    RunConfig cfg;
    cfg.numGpus = 4;
    cfg.numSwitches = 2;
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    m.batch = 1;
    OpGraph g = buildSubLayer(m, SubLayerId::L1);

    System sys(cfg.toSystemConfig(strategyByName("SP-NVLS")));
    GraphLowering low(sys, g, strategyByName("SP-NVLS").opts);
    low.lower();
    sys.run();

    for (std::size_t k = 0; k < sys.numKernels(); ++k) {
        for (GpuId gpu = 0; gpu < sys.numGpus(); ++gpu) {
            auto [s0, s1] =
                sys.kernelGpuSpan(static_cast<KernelId>(k), gpu);
            if (s1 == 0)
                continue;
            EXPECT_LE(s0, s1);
            EXPECT_GE(s0,
                      sys.kernelStartTime(static_cast<KernelId>(k)));
            EXPECT_LE(
                s1, sys.kernelFinishTime(static_cast<KernelId>(k)));
        }
    }
}
