/**
 * @file
 * Lightweight statistics containers used by the simulator and the
 * benchmark harnesses: running moments and exact percentile tracking for
 * latency CDFs.
 */

#ifndef RIF_COMMON_STATS_H
#define RIF_COMMON_STATS_H

#include <cstdint>
#include <limits>
#include <vector>

namespace rif {

/** Running mean/variance/min/max without storing samples (Welford). */
class RunningStats
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStats &other);

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Stores every sample and answers arbitrary percentile queries; used for
 * read-latency tail analysis (Fig. 19) where exactness at p99.99 matters.
 */
class PercentileTracker
{
  public:
    /** Add one sample. */
    void add(double x);

    /**
     * Return the p-th percentile (p in [0, 100]) by nearest-rank on the
     * sorted sample set; 0 when empty.
     */
    double percentile(double p) const;

    /** Full CDF as (value, cumulative fraction) pairs over `points` knots. */
    std::vector<std::pair<double, double>> cdf(int points = 50) const;

    std::uint64_t count() const { return samples_.size(); }
    double mean() const;

    /**
     * Raw sample storage (insertion order until the first percentile()
     * call sorts it in place); used to publish whole distributions into
     * the metrics registry.
     */
    const std::vector<double> &samples() const { return samples_; }

  private:
    void ensureSorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

} // namespace rif

#endif // RIF_COMMON_STATS_H
