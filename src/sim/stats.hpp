/**
 * @file
 * Lightweight statistics framework.
 *
 * Components own their stats as plain members (cheap to bump on hot
 * paths) and register them with a StatGroup so a whole machine can be
 * dumped hierarchically at end of simulation. Three primitives cover
 * everything the paper reports:
 *
 *  - Counter       monotonically increasing event count
 *  - Distribution  running min/max/mean/samples (for occupancies)
 *  - PeakTracker   watermark of a live quantity (Table 9's peaks)
 */

#ifndef SMTP_SIM_STATS_HPP
#define SMTP_SIM_STATS_HPP

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "snap/snap.hpp"

namespace smtp
{

class Counter
{
  public:
    void operator+=(std::uint64_t n) { value_ += n; }
    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    template <class Ar> void io(Ar &ar) { ar.u64(value_); }

  private:
    std::uint64_t value_ = 0;
};

class Distribution
{
  public:
    void
    sample(double v, std::uint64_t weight = 1)
    {
        if (weight == 0)
            return; // must not perturb min/max
        sum_ += v * static_cast<double>(weight);
        count_ += weight;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
        if (!hist_.empty())
            hist_[bucketIndex(v)] += weight;
    }

    /**
     * Fold @p other into this distribution (per-shard slices merged
     * for reporting). Histograms merge bucket-wise when both sides
     * share a layout; a histogram-less side merges into moments only.
     */
    void
    merge(const Distribution &other)
    {
        if (other.count_ == 0)
            return;
        sum_ += other.sum_;
        count_ += other.count_;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
        if (!hist_.empty() && hist_.size() == other.hist_.size() &&
            histLo_ == other.histLo_ && histHi_ == other.histHi_) {
            for (std::size_t i = 0; i < hist_.size(); ++i)
                hist_[i] += other.hist_[i];
        }
    }

    std::uint64_t samples() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /**
     * Attach a fixed-bucket histogram covering [@p lo, @p hi) with
     * @p buckets equal-width buckets plus implicit underflow/overflow
     * buckets, enabling percentile(). Without it sample() stays two
     * adds and two compares. Clears any previously recorded counts.
     */
    void
    enableHistogram(double lo, double hi, std::size_t buckets)
    {
        histLo_ = lo;
        histHi_ = hi;
        hist_.assign(buckets + 2, 0); // [under | buckets | over]
    }

    bool histogramEnabled() const { return !hist_.empty(); }

    /** Per-bucket weights: index 0 underflow, last overflow. */
    const std::vector<std::uint64_t> &histogram() const { return hist_; }

    /**
     * Histogram-based percentile, @p p in [0, 100]: the upper edge of
     * the first bucket whose cumulative weight reaches p% of the
     * samples (conservative — the true value is <= the estimate).
     * Underflow resolves to min(), overflow to max(); edges are
     * clamped to the observed [min, max]. 0 when no histogram or no
     * samples.
     */
    double
    percentile(double p) const
    {
        if (hist_.empty() || count_ == 0)
            return 0.0;
        // Clamp p to [0, 100] and the rank to the recorded weight so a
        // tail percentile of a thin sample (p99 of 10 requests) resolves
        // to the last occupied bucket instead of running off the end.
        const double pc = std::min(std::max(p, 0.0), 100.0);
        double target = std::max(1.0, pc / 100.0 * static_cast<double>(count_));
        target = std::min(target, static_cast<double>(count_));
        std::size_t nb = hist_.size() - 2;
        double width = (histHi_ - histLo_) / static_cast<double>(nb);
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < hist_.size(); ++i) {
            cum += hist_[i];
            if (static_cast<double>(cum) >= target) {
                if (i == 0)
                    return min();
                if (i == nb + 1)
                    return max();
                double edge = histLo_ + static_cast<double>(i) * width;
                return std::min(std::max(edge, min()), max());
            }
        }
        return max(); // unreachable: cum == count_ >= target
    }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
        std::fill(hist_.begin(), hist_.end(), std::uint64_t{0});
    }

    /**
     * Full state, as raw f64 bit patterns: the +/-inf min/max
     * sentinels of a sample-free Distribution and every histogram
     * bucket round-trip exactly (no reset()-shaped gaps).
     */
    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.f64(sum_);
        ar.u64(count_);
        ar.f64(min_);
        ar.f64(max_);
        ar.f64(histLo_);
        ar.f64(histHi_);
        ar.seq(hist_, 8, [](Ar &a, std::uint64_t &w) { a.u64(w); });
    }

  private:
    std::size_t
    bucketIndex(double v) const
    {
        std::size_t nb = hist_.size() - 2;
        if (v < histLo_)
            return 0;
        if (v >= histHi_)
            return nb + 1;
        double rel = (v - histLo_) / (histHi_ - histLo_);
        auto idx = static_cast<std::size_t>(rel * static_cast<double>(nb));
        return 1 + std::min(idx, nb - 1); // rounding guard at hi edge
    }

    double sum_ = 0.0;
    std::uint64_t count_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    double histLo_ = 0.0;
    double histHi_ = 1.0;
    std::vector<std::uint64_t> hist_; ///< empty = histogram disabled
};

/** Tracks the high-water mark of a live occupancy. */
class PeakTracker
{
  public:
    void
    observe(std::uint64_t level)
    {
        peak_ = std::max(peak_, level);
    }

    std::uint64_t peak() const { return peak_; }
    void reset() { peak_ = 0; }

    template <class Ar> void io(Ar &ar) { ar.u64(peak_); }

  private:
    std::uint64_t peak_ = 0;
};

/**
 * Named collection of stats for dumping. Registration stores pointers;
 * the owning component must outlive the group (true for our machines,
 * which are torn down wholesale).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void
    add(const std::string &stat_name, const Counter *c)
    {
        counters_.push_back({stat_name, c});
    }

    void
    add(const std::string &stat_name, const Distribution *d)
    {
        dists_.push_back({stat_name, d});
    }

    void
    add(const std::string &stat_name, const PeakTracker *p)
    {
        peaks_.push_back({stat_name, p});
    }

    void addChild(StatGroup *g) { children_.push_back(g); }

    const std::string &name() const { return name_; }

    void dump(std::ostream &os, int indent = 0) const;

  private:
    template <typename T>
    struct Named
    {
        std::string name;
        const T *stat;
    };

    std::string name_;
    std::vector<Named<Counter>> counters_;
    std::vector<Named<Distribution>> dists_;
    std::vector<Named<PeakTracker>> peaks_;
    std::vector<StatGroup *> children_;
};

} // namespace smtp

#endif // SMTP_SIM_STATS_HPP
