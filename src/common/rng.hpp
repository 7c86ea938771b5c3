/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * Every stochastic choice in the simulator (NAK retry jitter, workload
 * key generation, random testers) draws from an explicitly-seeded Rng so
 * that whole-machine simulations are bit-reproducible run to run.
 * xoshiro256** — fast, high quality, trivially seedable.
 */

#ifndef SMTP_COMMON_RNG_HPP
#define SMTP_COMMON_RNG_HPP

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "snap/snap.hpp"

namespace smtp
{

class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    /** Re-seed via splitmix64 so correlated seeds still decorrelate. */
    void
    reseed(std::uint64_t seed)
    {
        for (auto &word : state_) {
            seed += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    std::uint64_t
    next()
    {
        std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    template <class Ar>
    void
    io(Ar &ar)
    {
        for (std::uint64_t &w : state_)
            ar.u64(w);
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/**
 * Zipf-distributed rank sampler over n ranks with exponent s:
 * P(rank k) proportional to 1 / (k+1)^s for k in [0, n). The CDF is
 * precomputed once (O(n) doubles) and each sample is a binary search
 * driven by an external Rng, so two samplers built with the same (n, s)
 * and fed the same Rng stream produce identical rank sequences. s = 0
 * degenerates to the exact uniform distribution. Used by the server
 * workload family for skewed key popularity.
 */
class ZipfGen
{
  public:
    ZipfGen(std::size_t n, double s) : cdf_(n), s_(s)
    {
        double sum = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
            sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
            cdf_[k] = sum;
        }
        for (double &c : cdf_)
            c /= sum;
    }

    /** Draw a rank in [0, n); rank 0 is the most popular. */
    std::size_t
    sample(Rng &rng) const
    {
        const double u = rng.uniform();
        std::size_t lo = 0, hi = cdf_.size() - 1;
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (cdf_[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    std::size_t ranks() const { return cdf_.size(); }
    double exponent() const { return s_; }

  private:
    std::vector<double> cdf_;
    double s_;
};

} // namespace smtp

#endif // SMTP_COMMON_RNG_HPP
