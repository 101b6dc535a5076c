/**
 * @file
 * Lightweight statistics package: scalar counters, accumulators,
 * histograms and binned time series.
 *
 * Components own their stats by value; a MetricRegistry
 * (common/metrics.hh) only holds non-owning pointers for reporting.
 */

#ifndef CAIS_COMMON_STATS_HH
#define CAIS_COMMON_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.hh"

namespace cais
{

/** Monotonically increasing scalar statistic. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t n = 1) { val += n; }
    void reset() { val = 0; }
    std::uint64_t value() const { return val; }

  private:
    std::uint64_t val = 0;
};

/**
 * Running mean/min/max accumulator over double samples.
 *
 * Zero-sample behaviour is defined and NaN-free: mean(), min() and
 * max() all return 0.0 (not +/-infinity, not NaN) until the first
 * sample arrives, so downstream report writers can serialize any
 * accumulator without guarding.
 */
class Accumulator
{
  public:
    void
    sample(double v)
    {
        ++n;
        total += v;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }

    void
    reset()
    {
        n = 0;
        total = 0.0;
        lo = std::numeric_limits<double>::infinity();
        hi = -std::numeric_limits<double>::infinity();
    }

    std::uint64_t count() const { return n; }
    double sum() const { return total; }
    double mean() const { return n ? total / static_cast<double>(n) : 0.0; }
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }

  private:
    std::uint64_t n = 0;
    double total = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
};

/** Fixed-width-bin histogram over a [lo, hi) range with overflow bins. */
class Histogram
{
  public:
    Histogram() : Histogram(0.0, 1.0, 10) {}

    Histogram(double lo, double hi, std::size_t bins);

    void sample(double v);
    void reset();

    std::uint64_t count() const { return acc.count(); }
    double mean() const { return acc.mean(); }
    double min() const { return acc.min(); }
    double max() const { return acc.max(); }

    /**
     * Value below which @p frac of samples fall (bin-interpolated).
     *
     * Defined, NaN-free edge cases: with zero samples the range start
     * `lo` is returned; @p frac is clamped into [0, 1], and a NaN
     * @p frac behaves like 0. Samples in the underflow/overflow bins
     * resolve to `lo` / `hi` (the bins carry no interior position).
     */
    double percentile(double frac) const;

    const std::vector<std::uint64_t> &binCounts() const { return counts; }

  private:
    double lo;
    double hi;
    double binWidth;
    std::vector<std::uint64_t> counts; // [under, bins..., over]
    Accumulator acc;
};

/**
 * Time series that accumulates a quantity (e.g. bytes transferred)
 * into fixed-width time bins, for utilization-over-time plots.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(Cycle bin_width = 1000) : width(bin_width) {}

    /** Add @p amount at time @p when. */
    void record(Cycle when, double amount);

    /**
     * Spread @p amount uniformly over [start, end). Used for packet
     * serialization intervals that straddle bin boundaries.
     */
    void recordInterval(Cycle start, Cycle end, double amount);

    void reset();

    Cycle binWidth() const { return width; }

    /** Accumulated amount in bin @p i (0 beyond the recorded range). */
    double binValue(std::size_t i) const;

    /** Mean of binValue over bins [first, last). */
    double meanOver(std::size_t first, std::size_t last) const;

    const std::vector<double> &data() const { return bins; }

  private:
    /** Extend bins to @p need entries with amortized-doubling growth. */
    void grow(std::size_t need);

    Cycle width;
    std::vector<double> bins;
};

} // namespace cais

#endif // CAIS_COMMON_STATS_HH
