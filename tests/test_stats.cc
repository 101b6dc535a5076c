/** @file Unit tests for the statistics package. */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/stats.hh"

using namespace cais;

TEST(Counter, IncrementsAndResets)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Accumulator, TracksMeanMinMax)
{
    Accumulator a;
    for (double v : {3.0, 1.0, 2.0})
        a.sample(v);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 3.0);
    EXPECT_DOUBLE_EQ(a.sum(), 6.0);
}

TEST(Accumulator, EmptyIsZero)
{
    Accumulator a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Histogram, BinsSamplesWithOverflow)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(-1.0); // underflow
    h.sample(0.5);
    h.sample(5.5);
    h.sample(25.0); // overflow
    EXPECT_EQ(h.count(), 4u);
    const auto &bins = h.binCounts();
    EXPECT_EQ(bins.front(), 1u);
    EXPECT_EQ(bins.back(), 1u);
    EXPECT_EQ(bins[1], 1u);
    EXPECT_EQ(bins[6], 1u);
}

TEST(Histogram, PercentileInterpolates)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i) + 0.5);
    double p50 = h.percentile(0.5);
    EXPECT_NEAR(p50, 50.0, 1.5);
    double p90 = h.percentile(0.9);
    EXPECT_NEAR(p90, 90.0, 1.5);
}

TEST(Accumulator, ZeroSampleReadingsAreFinite)
{
    // The documented contract: every reading of an empty accumulator
    // is 0.0 -- never NaN or +/-infinity -- so report writers can
    // serialize without guarding.
    Accumulator a;
    EXPECT_TRUE(std::isfinite(a.mean()));
    EXPECT_TRUE(std::isfinite(a.min()));
    EXPECT_TRUE(std::isfinite(a.max()));
    EXPECT_DOUBLE_EQ(a.sum(), 0.0);
    a.sample(5.0);
    a.reset();
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Histogram, ZeroSamplePercentileIsRangeStart)
{
    Histogram h(10.0, 20.0, 5);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);
}

TEST(Histogram, PercentileClampsFraction)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i) + 0.5);
    EXPECT_DOUBLE_EQ(h.percentile(-0.5), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));
    EXPECT_LE(h.percentile(0.0), h.percentile(1.0));
}

TEST(Histogram, NanFractionBehavesLikeZero)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i) + 0.5);
    double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(std::isfinite(h.percentile(nan)));
    EXPECT_DOUBLE_EQ(h.percentile(nan), h.percentile(0.0));
}

TEST(TimeSeries, RecordsIntoBins)
{
    TimeSeries ts(100);
    ts.record(50, 10.0);
    ts.record(150, 20.0);
    ts.record(199, 5.0);
    EXPECT_DOUBLE_EQ(ts.binValue(0), 10.0);
    EXPECT_DOUBLE_EQ(ts.binValue(1), 25.0);
    EXPECT_DOUBLE_EQ(ts.binValue(2), 0.0);
}

TEST(TimeSeries, IntervalSpreadsProportionally)
{
    TimeSeries ts(100);
    // 30 bytes over [50, 200): 50 cycles in bin0, 100 in bin1.
    ts.recordInterval(50, 200, 30.0);
    EXPECT_NEAR(ts.binValue(0), 10.0, 1e-9);
    EXPECT_NEAR(ts.binValue(1), 20.0, 1e-9);
}

TEST(TimeSeries, MeanOverRange)
{
    TimeSeries ts(10);
    ts.record(5, 10.0);
    ts.record(15, 30.0);
    EXPECT_DOUBLE_EQ(ts.meanOver(0, 2), 20.0);
}
