/**
 * @file
 * Unit tests for the observability backbone (DESIGN.md §6d): the
 * hierarchical MetricRegistry and its snapshot pattern queries, the
 * shared JSON writer/parser, the schema-versioned run report, and the
 * cais_report renderer (driven in-process via cais_report_core).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/report.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "report.hh" // tools/cais_report core

using namespace cais;

namespace
{

TEST(MetricRegistry, RegistersAndSnapshotsEveryKind)
{
    MetricRegistry reg;
    Counter c;
    c.inc(42);
    Accumulator a;
    a.sample(2.0);
    a.sample(4.0);
    Histogram h(0.0, 10.0, 10);
    h.sample(5.0);
    TimeSeries ts(100);
    ts.record(50, 7.0);

    reg.addCounter("sw0.pkts", &c);
    reg.addAccumulator("sw0.lat", &a);
    reg.addHistogram("sw0.stagger", &h);
    reg.addTimeSeries("sw0.bw", &ts);
    reg.addGauge("sw0.util", [] { return 0.5; });
    reg.addGaugeU64("sw0.peak", [] { return std::uint64_t(99); });

    EXPECT_EQ(reg.size(), 6u);
    EXPECT_TRUE(reg.has("sw0.pkts"));
    EXPECT_FALSE(reg.has("sw0.nope"));

    MetricSnapshot snap = reg.snapshot();
    const MetricValue *pkts = snap.find("sw0.pkts");
    ASSERT_NE(pkts, nullptr);
    EXPECT_EQ(pkts->kind, MetricKind::counter);
    EXPECT_EQ(pkts->u64, 42u);

    const MetricValue *lat = snap.find("sw0.lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, 2u);
    EXPECT_DOUBLE_EQ(lat->mean, 3.0);

    const MetricValue *stagger = snap.find("sw0.stagger");
    ASSERT_NE(stagger, nullptr);
    EXPECT_EQ(stagger->kind, MetricKind::histogram);
    EXPECT_EQ(stagger->count, 1u);

    const MetricValue *bw = snap.find("sw0.bw");
    ASSERT_NE(bw, nullptr);
    EXPECT_EQ(bw->binWidth, 100u);
    ASSERT_FALSE(bw->bins.empty());
    EXPECT_DOUBLE_EQ(bw->bins[0], 7.0);

    EXPECT_DOUBLE_EQ(snap.find("sw0.util")->value, 0.5);
    EXPECT_EQ(snap.find("sw0.peak")->u64, 99u);
}

TEST(MetricRegistry, SnapshotReadsAtCallTime)
{
    MetricRegistry reg;
    Counter c;
    reg.addCounter("c", &c);
    c.inc(5);
    // Registration stores a reader, not a value: the increment after
    // addCounter must be visible.
    EXPECT_EQ(reg.snapshot().find("c")->u64, 5u);
}

TEST(MetricRegistry, RejectsDuplicateAndEmptyPaths)
{
    MetricRegistry reg;
    Counter c;
    reg.addCounter("dup", &c);
    EXPECT_DEATH(reg.addCounter("dup", &c), "duplicate metric path");
    EXPECT_DEATH(reg.addCounter("", &c), "empty path");
}

TEST(MetricSnapshot, PatternMatching)
{
    // '*' matches any run of characters, including dots.
    EXPECT_TRUE(MetricSnapshot::matches("switch*.merge.loadReqs",
                                        "switch12.merge.loadReqs"));
    EXPECT_TRUE(MetricSnapshot::matches("*", "anything.at.all"));
    EXPECT_TRUE(MetricSnapshot::matches("a.*.c", "a.b.x.c"));
    EXPECT_TRUE(MetricSnapshot::matches("exact", "exact"));
    EXPECT_FALSE(MetricSnapshot::matches("exact", "exactly"));
    // The stagger aggregate must not swallow the load/red variants.
    EXPECT_FALSE(MetricSnapshot::matches(
        "switch*.merge.stagger", "switch0.merge.loadStagger"));
    EXPECT_FALSE(
        MetricSnapshot::matches("a.*.c", "a.b.d"));
}

TEST(MetricSnapshot, AggregatesOverPatterns)
{
    MetricRegistry reg;
    Counter c0, c1, other;
    c0.inc(10);
    c1.inc(32);
    other.inc(1000);
    reg.addCounter("sw0.merge.loadReqs", &c0);
    reg.addCounter("sw1.merge.loadReqs", &c1);
    reg.addCounter("sw0.merge.redReqs", &other);

    MetricSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.sumU64("sw*.merge.loadReqs"), 42u);
    EXPECT_EQ(snap.maxU64("sw*.merge.loadReqs"), 32u);
    EXPECT_DOUBLE_EQ(snap.sum("sw*.merge.loadReqs"), 42.0);

    int visited = 0;
    snap.forEach("sw*.merge.loadReqs",
                 [&](const std::string &path, const MetricValue &) {
        // forEach visits in path order.
        EXPECT_EQ(path, visited == 0 ? "sw0.merge.loadReqs"
                                     : "sw1.merge.loadReqs");
        ++visited;
    });
    EXPECT_EQ(visited, 2);
}

struct TestProbe : public Probe
{
    Counter hits;

    void
    registerMetrics(MetricRegistry &reg,
                    const std::string &prefix) const override
    {
        reg.addCounter(prefix + ".hits", &hits);
    }
};

TEST(Probe, SelfRegistersUnderPrefix)
{
    TestProbe p;
    p.hits.inc(3);
    MetricRegistry reg;
    p.registerMetrics(reg, "switch0.unit");
    EXPECT_EQ(reg.snapshot().find("switch0.unit.hits")->u64, 3u);
}

TEST(JsonWriter, RoundTripsThroughParser)
{
    JsonWriter w;
    w.beginObject()
        .field("name", "a \"quoted\"\nname")
        .field("count", std::uint64_t(18446744073709551615ull))
        .field("pi", 3.25)
        .field("neg", std::int64_t(-7))
        .field("on", true)
        .key("list")
        .beginArray()
        .value(1)
        .value(2)
        .endArray()
        .key("nothing")
        .null()
        .endObject();

    JsonValue v;
    std::string error;
    ASSERT_TRUE(jsonParse(w.str(), v, error)) << error;
    EXPECT_EQ(v.getString("name"), "a \"quoted\"\nname");
    EXPECT_DOUBLE_EQ(v.getNumber("pi"), 3.25);
    EXPECT_DOUBLE_EQ(v.getNumber("neg"), -7.0);
    ASSERT_NE(v.find("on"), nullptr);
    EXPECT_TRUE(v.find("on")->boolVal);
    ASSERT_NE(v.find("list"), nullptr);
    ASSERT_EQ(v.find("list")->elems.size(), 2u);
    EXPECT_DOUBLE_EQ(v.find("list")->elems[1].numVal, 2.0);
    EXPECT_TRUE(v.find("nothing")->isNull());
}

TEST(JsonWriter, NonFiniteDoublesBecomeZero)
{
    JsonWriter w;
    w.beginObject()
        .field("inf", std::numeric_limits<double>::infinity())
        .field("nan", std::numeric_limits<double>::quiet_NaN())
        .endObject();
    JsonValue v;
    std::string error;
    ASSERT_TRUE(jsonParse(w.str(), v, error)) << error;
    EXPECT_DOUBLE_EQ(v.getNumber("inf"), 0.0);
    EXPECT_DOUBLE_EQ(v.getNumber("nan"), 0.0);
}

/** What the writer renders for a lone value. */
template <typename T>
std::string
rendered(T v)
{
    JsonWriter w;
    w.value(v);
    return w.str();
}

std::string
printfG17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

TEST(JsonWriter, DoublesRenderLikePrintfG17)
{
    std::vector<double> cases = {
        0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 1.5, 87.5, 100.0 / 3.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 3.0,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::epsilon(),
        1e16, 1e17, 1e21, 1e22, 1e23, -1e22, 123456789012345678.0,
        1e-5, 1e-4, 0.0001234, 9007199254740991.0, 9007199254740992.0,
        9007199254740993.0, 18446744073709551615.0};
    for (int e = 0; e <= 53; ++e)
        cases.push_back(std::ldexp(1.0, e));
    // Trace timestamps: cycle counts over 1000.
    for (std::uint64_t k = 0; k < 5000; ++k)
        cases.push_back(static_cast<double>(k * 997 + k / 7) / 1000.0);
    for (double v : cases)
        EXPECT_EQ(rendered(v), printfG17(v)) << printfG17(v);

    // Random finite bit patterns cover every exponent and mantissa.
    std::mt19937_64 rng(0x5eed);
    int checked = 0;
    while (checked < 100000) {
        std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        if (!std::isfinite(v))
            continue;
        ++checked;
        ASSERT_EQ(rendered(v), printfG17(v)) << "bits " << bits;
    }
}

TEST(JsonWriter, IntegersRenderLikePrintf)
{
    char buf[32];
    for (std::uint64_t v :
         {std::uint64_t(0), std::uint64_t(1), std::uint64_t(9),
          std::uint64_t(10), std::uint64_t(4294967295u),
          std::uint64_t(4294967296u),
          std::numeric_limits<std::uint64_t>::max() - 1,
          std::numeric_limits<std::uint64_t>::max()}) {
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
        EXPECT_EQ(rendered(v), buf);
    }
    for (std::int64_t v :
         {std::int64_t(0), std::int64_t(-1), std::int64_t(42),
          std::numeric_limits<std::int64_t>::min(),
          std::numeric_limits<std::int64_t>::min() + 1,
          std::numeric_limits<std::int64_t>::max()}) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        EXPECT_EQ(rendered(v), buf);
    }
    for (int v : {std::numeric_limits<int>::min(), -7, 0,
                  std::numeric_limits<int>::max()}) {
        std::snprintf(buf, sizeof(buf), "%d", v);
        EXPECT_EQ(rendered(v), buf);
    }
}

TEST(JsonParse, RejectsMalformedInput)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(jsonParse("{\"a\": }", v, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(jsonParse("", v, error));
    EXPECT_FALSE(jsonParse("{\"a\": 1} trailing", v, error));
}

TEST(MetricSnapshot, WriteJsonIsParseable)
{
    MetricRegistry reg;
    Counter c;
    c.inc(7);
    Histogram h(0.0, 10.0, 10);
    h.sample(2.0);
    h.sample(8.0);
    reg.addCounter("sw0.pkts", &c);
    reg.addHistogram("sw0.stagger", &h);

    JsonWriter w;
    reg.snapshot().writeJson(w);
    JsonValue v;
    std::string error;
    ASSERT_TRUE(jsonParse(w.str(), v, error)) << error;
    const JsonValue *pkts = v.find("sw0.pkts");
    ASSERT_NE(pkts, nullptr);
    EXPECT_EQ(pkts->getString("kind"), "counter");
    EXPECT_DOUBLE_EQ(pkts->getNumber("value"), 7.0);
    const JsonValue *stagger = v.find("sw0.stagger");
    ASSERT_NE(stagger, nullptr);
    EXPECT_EQ(stagger->getString("kind"), "histogram");
    EXPECT_DOUBLE_EQ(stagger->getNumber("count"), 2.0);
}

/** A small but complete report document for the renderer tests. */
std::string
makeReport(std::uint64_t seed, std::uint64_t loadReqs)
{
    RunConfig cfg;
    cfg.seed = seed;
    RunResult r;
    r.strategy = "CAIS";
    r.workload = "L1";
    r.makespan = 1000 + seed;
    r.eventsExecuted = 5000;
    KernelTiming k;
    k.name = "ag_gemm";
    k.start = 0;
    k.finish = 900;
    k.comm = true;
    r.kernels.push_back(k);

    // The registry stores non-owning readers, but snapshot() copies
    // the values out, so the counter only needs to outlive that call.
    MetricRegistry reg;
    Counter c;
    c.inc(loadReqs);
    reg.addCounter("switch0.merge.loadReqs", &c);
    return renderMetricsReport(cfg, r, reg.snapshot());
}

TEST(MetricsReport, RendersSchemaVersionedParseableJson)
{
    std::string text = makeReport(1, 10);
    JsonValue v;
    std::string error;
    ASSERT_TRUE(jsonParse(text, v, error)) << error;
    EXPECT_EQ(v.getString("schema"), metricsSchemaVersion);
    EXPECT_EQ(v.getString("strategy"), "CAIS");
    ASSERT_NE(v.find("config"), nullptr);
    EXPECT_DOUBLE_EQ(v.find("config")->getNumber("seed"), 1.0);
    ASSERT_NE(v.find("result"), nullptr);
    EXPECT_DOUBLE_EQ(v.find("result")->getNumber("makespan"), 1001.0);
    ASSERT_NE(v.find("metrics"), nullptr);
    ASSERT_NE(v.find("metrics")->find("switch0.merge.loadReqs"),
              nullptr);
    ASSERT_NE(v.find("kernels"), nullptr);
    ASSERT_EQ(v.find("kernels")->elems.size(), 1u);
    EXPECT_EQ(v.find("kernels")->elems[0].getString("name"),
              "ag_gemm");
}

TEST(CaisReport, LoadValidatesSchema)
{
    report::Report rep;
    std::string error;
    EXPECT_TRUE(report::load(makeReport(1, 10), "a.json", rep, error))
        << error;

    EXPECT_FALSE(report::load("{not json", "x", rep, error));
    EXPECT_FALSE(report::load("{\"schema\": \"other-v9\"}", "x", rep,
                              error));
    EXPECT_NE(error.find("schema"), std::string::npos);
    EXPECT_FALSE(report::load(
        "{\"schema\": \"cais-metrics-v1\"}", "x", rep, error));
    EXPECT_NE(error.find("result"), std::string::npos);
}

TEST(CaisReport, LoadFileRejectsMissingMalformedAndDirectoryPaths)
{
    namespace fs = std::filesystem;
    report::Report rep;
    std::string error;

    EXPECT_FALSE(
        report::loadFile("/nonexistent/run.json", rep, error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);

    fs::path dir =
        fs::temp_directory_path() / "cais_report_loadfile_test";
    fs::create_directories(dir);

    // A directory opens fine with fopen() but cannot be read; the
    // error must say so rather than report a JSON parse failure.
    error.clear();
    EXPECT_FALSE(report::loadFile(dir.string(), rep, error));
    EXPECT_NE(error.find("cannot read"), std::string::npos);

    fs::path bad = dir / "bad.json";
    std::ofstream(bad) << "{\"schema\": \"cais-metrics-v1\", ";
    error.clear();
    EXPECT_FALSE(report::loadFile(bad.string(), rep, error));
    EXPECT_FALSE(error.empty());

    fs::path good = dir / "good.json";
    std::ofstream(good) << makeReport(1, 10);
    error.clear();
    EXPECT_TRUE(report::loadFile(good.string(), rep, error)) << error;
    EXPECT_EQ(rep.path, good.string());

    fs::remove_all(dir);
}

TEST(CaisReport, SummaryListsResultScalars)
{
    report::Report rep;
    std::string error;
    ASSERT_TRUE(report::load(makeReport(1, 10), "a.json", rep, error));
    std::string s = report::summary(rep);
    EXPECT_NE(s.find("makespan"), std::string::npos);
    EXPECT_NE(s.find("1001"), std::string::npos);
    EXPECT_NE(s.find("CAIS"), std::string::npos);
}

TEST(CaisReport, DiffShowsPercentDeltas)
{
    report::Report a, b;
    std::string error;
    ASSERT_TRUE(report::load(makeReport(1, 10), "a.json", a, error));
    ASSERT_TRUE(report::load(makeReport(101, 15), "b.json", b, error));
    std::string d = report::diff(a, b);
    // makespan 1001 -> 1101 is +9.99%; the merge counter moved too.
    EXPECT_NE(d.find("makespan"), std::string::npos);
    EXPECT_NE(d.find("+9.99%"), std::string::npos);
    EXPECT_NE(d.find("switch0.merge.loadReqs"), std::string::npos);
}

/** A run report whose bound section carries the given per-resource
 *  bounds (cycles); the composite and binding class follow from them. */
std::string
makeBoundReport(Cycle makespan, Cycle hbm, Cycle link)
{
    RunConfig cfg;
    RunResult r;
    r.strategy = "CAIS";
    r.workload = "L1";
    r.makespan = makespan;
    r.boundCompute = 200;
    r.boundHbm = hbm;
    r.boundLink = link;
    r.boundComposite = std::max({r.boundCompute, hbm, link});
    r.boundBinding = hbm > link ? "hbm" : "linkSerialization";
    return renderMetricsReport(cfg, r, MetricRegistry().snapshot());
}

TEST(CaisReport, BoundDiffShowsPerResourceDeltasAndRatios)
{
    report::Report a, b;
    std::string error;
    ASSERT_TRUE(report::load(makeBoundReport(1000, 400, 500), "a.json",
                             a, error))
        << error;
    ASSERT_TRUE(report::load(makeBoundReport(1100, 600, 500), "b.json",
                             b, error))
        << error;
    std::string d = report::boundDiff(a, b);
    EXPECT_NE(d.find("makespan: 1000 -> 1100 (+10.00%)  binding: "
                     "linkSerialization -> hbm"),
              std::string::npos)
        << d;
    // Bound A, bound B, delta, then makespan / bound on each side.
    EXPECT_NE(d.find("400              600    +50.00%       2.50       "
                     "1.83"),
              std::string::npos)
        << d;
    EXPECT_NE(d.find("smCompute"), std::string::npos);
    // Classes bounded at zero on both sides are left out.
    EXPECT_EQ(d.find("mergeService"), std::string::npos);
    EXPECT_EQ(d.find("criticalPath"), std::string::npos);

    // A causal profile has no bound section to diff.
    report::Report prof;
    ASSERT_TRUE(report::load(
        "{\"schema\": \"cais-profile-v1\", \"makespan\": 1}",
        "p.json", prof, error))
        << error;
    EXPECT_NE(report::boundDiff(a, prof).find("--bound needs a "
                                              "cais-metrics-v1"),
              std::string::npos);
}

TEST(MetricRegistry, HistogramSnapshotCarriesTailPercentiles)
{
    MetricRegistry reg;
    Histogram h(0.0, 1000.0, 1000);
    for (int i = 0; i < 1000; ++i)
        h.sample(static_cast<double>(i));
    reg.addHistogram("lat", &h);

    MetricSnapshot snap = reg.snapshot();
    const MetricValue *v = snap.find("lat");
    ASSERT_NE(v, nullptr);
    EXPECT_GT(v->p999, v->p99);
    EXPECT_GT(v->p99, v->p50);
    EXPECT_NEAR(v->p999, 999.0, 2.0);

    JsonWriter w;
    reg.snapshot().writeJson(w);
    EXPECT_NE(w.str().find("\"p999\""), std::string::npos);
}

TEST(MetricRegistry, ComputedTimeSeriesReadsAtSnapshotTime)
{
    MetricRegistry reg;
    std::vector<double> backing{1.0};
    reg.addTimeSeriesFn("fabric.utilSeries", 2000,
                        [&backing] { return backing; });
    backing.push_back(2.0); // must be visible: reader, not a copy

    MetricSnapshot snap = reg.snapshot();
    const MetricValue *v = snap.find("fabric.utilSeries");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->kind, MetricKind::timeSeries);
    EXPECT_EQ(v->binWidth, 2000u);
    ASSERT_EQ(v->bins.size(), 2u);
    EXPECT_DOUBLE_EQ(v->bins[1], 2.0);
}

/** makeReport() plus a histogram and an extra counter under a
 *  caller-chosen path, for the percentile / added-removed views. */
std::string
makeReportWith(std::uint64_t seed, const std::string &extra_path)
{
    RunConfig cfg;
    cfg.seed = seed;
    RunResult r;
    r.strategy = "CAIS";
    r.workload = "L1";
    r.makespan = 1000 + seed;

    MetricRegistry reg;
    Counter c;
    c.inc(seed);
    reg.addCounter(extra_path, &c);
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i % 50) + (seed == 1 ? 0 : 25));
    reg.addHistogram("switch0.merge.stagger", &h);
    return renderMetricsReport(cfg, r, reg.snapshot());
}

TEST(CaisReport, SummaryRendersHistogramPercentiles)
{
    report::Report rep;
    std::string error;
    ASSERT_TRUE(report::load(makeReportWith(1, "a.only"), "a.json",
                             rep, error));
    std::string s = report::summary(rep);
    EXPECT_NE(s.find("p999"), std::string::npos);
    EXPECT_NE(s.find("switch0.merge.stagger"), std::string::npos);
}

TEST(CaisReport, DiffRendersPercentilesAndAddedRemovedPaths)
{
    report::Report a, b;
    std::string error;
    ASSERT_TRUE(report::load(makeReportWith(1, "a.only"), "a.json", a,
                             error));
    ASSERT_TRUE(report::load(makeReportWith(2, "b.only"), "b.json", b,
                             error));
    std::string d = report::diff(a, b);
    // Histogram percentile shift is rendered...
    EXPECT_NE(d.find("p999 A -> B"), std::string::npos);
    EXPECT_NE(d.find("switch0.merge.stagger"), std::string::npos);
    // ...and paths present in only one report are called out rather
    // than silently skipped.
    EXPECT_NE(d.find("only in A"), std::string::npos);
    EXPECT_NE(d.find("- a.only"), std::string::npos);
    EXPECT_NE(d.find("only in B"), std::string::npos);
    EXPECT_NE(d.find("+ b.only"), std::string::npos);
}

} // namespace
