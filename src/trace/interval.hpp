/**
 * @file
 * Interval stats engine: samples registered probes (closures over live
 * Counters/Distributions/occupancy getters) into an in-memory time
 * series, driven inline from the machine's run loop.
 *
 * Deliberately not event-queue based: scheduling sampler events would
 * advance simulated time past the workload's natural end (the run
 * loop's all-done check fires every 512 events) and perturb measured
 * execution times. sampleUpTo() is called between events instead; when
 * the current tick crosses the next boundary, one row is recorded and
 * the boundary advances past "now" — so long idle gaps cost one row,
 * not one per period.
 */

#ifndef SMTP_TRACE_INTERVAL_HPP
#define SMTP_TRACE_INTERVAL_HPP

#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "snap/snap.hpp"

namespace smtp::trace
{

class IntervalSampler
{
  public:
    using ProbeFn = std::function<double()>;

    void
    addProbe(std::string name, ProbeFn fn)
    {
        names_.push_back(std::move(name));
        probes_.push_back(std::move(fn));
    }

    /** Arm with a period in ticks; first row records at @p interval. */
    void
    start(Tick interval)
    {
        interval_ = interval;
        next_ = interval;
    }

    bool active() const { return interval_ != 0 && !probes_.empty(); }

    /** Hot-path check: record one row if @p now crossed the boundary. */
    void
    sampleUpTo(Tick now)
    {
        if (now >= next_)
            sampleRow(now);
    }

    const std::vector<std::string> &names() const { return names_; }
    std::size_t rows() const { return ticks_.size(); }
    Tick rowTick(std::size_t row) const { return ticks_[row]; }

    double
    value(std::size_t row, std::size_t series) const
    {
        return values_[row * names_.size() + series];
    }

    const std::vector<Tick> &ticks() const { return ticks_; }
    const std::vector<double> &values() const { return values_; }
    Tick interval() const { return interval_; }

    // ---- Snapshot support --------------------------------------------
    //
    // Probes and their names are wired up at machine construction (same
    // config => same probe list), so only the recorded rows and the
    // next-boundary cursor persist. The probe count is stored for
    // validation.

    template <class Ar>
    void
    io(Ar &ar)
    {
        std::uint64_t probes = names_.size();
        ar.u64(probes);
        if constexpr (Ar::loading) {
            if (probes != names_.size()) {
                ar.fail("corrupt snapshot: interval sampler probe count "
                        "mismatch");
                return;
            }
        }
        ar.u64(interval_);
        ar.u64(next_);
        ar.seq(ticks_, 8, [](Ar &a, Tick &t) { a.u64(t); }, maxRows_,
               "corrupt snapshot: interval sampler row count out of "
               "range");
        if constexpr (Ar::loading)
            values_.assign(ticks_.size() * names_.size(), 0.0);
        for (double &v : values_)
            ar.f64(v);
    }

  private:
    void
    sampleRow(Tick now)
    {
        if (ticks_.size() < maxRows_) {
            ticks_.push_back(now);
            for (const auto &p : probes_)
                values_.push_back(p());
        }
        // Advance past now so one crossing yields one row.
        next_ += interval_ * ((now - next_) / interval_ + 1);
    }

    static constexpr std::size_t maxRows_ = 1u << 20;

    std::vector<std::string> names_;
    std::vector<ProbeFn> probes_;
    std::vector<Tick> ticks_;
    std::vector<double> values_; ///< rows() * names().size(), row-major.
    Tick interval_ = 0;
    Tick next_ = maxTick;
};

} // namespace smtp::trace

#endif // SMTP_TRACE_INTERVAL_HPP
