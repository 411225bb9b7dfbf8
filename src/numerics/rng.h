// Seeded random number generation for the population simulator and noise
// models. Every stochastic component in cellsync takes an explicit `Rng&`
// or, per simulated cell, a `Counter_stream&` (never a global generator)
// so that simulations, tests, and benches are reproducible bit-for-bit
// given a seed.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>

#include "numerics/vector_ops.h"

namespace cellsync {

/// Deterministic pseudo-random source (Mersenne twister, 64-bit) with the
/// named draws the biology layer needs.
class Rng {
  public:
    /// Construct with an explicit seed; the same seed always reproduces the
    /// same stream.
    explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

    /// Uniform draw on [0, 1).
    double uniform();

    /// Uniform draw on [lo, hi). Throws std::invalid_argument if lo > hi.
    double uniform(double lo, double hi);

    /// Standard normal draw.
    double normal();

    /// Normal draw with mean mu and standard deviation sigma >= 0.
    double normal(double mu, double sigma);

    /// Normal draw rejected-and-resampled until it lies inside [lo, hi].
    /// Throws std::invalid_argument if [lo, hi] is empty or sigma < 0; falls
    /// back to clamping after 10000 rejections (pathological windows).
    double truncated_normal(double mu, double sigma, double lo, double hi);

    /// Log-normal draw: exp(Normal(mu_log, sigma_log)).
    double lognormal(double mu_log, double sigma_log);

    /// Integer draw uniform on [0, n) ; throws if n == 0.
    std::size_t index(std::size_t n);

    /// Vector of n standard-normal draws.
    Vector normal_vector(std::size_t n);

    /// Access the underlying engine (for std::shuffle interop).
    std::mt19937_64& engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

/// Deterministically derive an independent stream seed from a base seed
/// and a stream index (splitmix64 over the combined words). Parallel code
/// seeds each task with mix_seed(base, task_index) so results never depend
/// on thread count or scheduling order.
inline std::uint64_t mix_seed(std::uint64_t base, std::uint64_t stream) {
    // splitmix64 finalizer over the combined words; cheap, and distinct
    // (base, stream) pairs land in well-separated states.
    std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Counter-based random stream: word k of key K is mix_seed(K, k), i.e.
/// the splitmix64 sequence started at K. A stream is two words of state
/// and shares nothing, so the population simulator gives every cell its
/// own: what a cell draws never depends on how many draws other cells
/// made, or in which order they were made.
class Counter_stream {
  public:
    explicit Counter_stream(std::uint64_t key) : key_(key) {}

    /// Next raw 64-bit word.
    std::uint64_t next_word() { return mix_seed(key_, counter_++); }

    /// Uniform draw on [0, 1) from the top 53 bits of the next word.
    double uniform() { return static_cast<double>(next_word() >> 11) * 0x1.0p-53; }

    /// Two independent standard-normal draws from one Marsaglia polar
    /// acceptance (both variates are used; nothing is discarded). Inline:
    /// it is the population simulator's per-cell hot path.
    void normal_pair(double& first, double& second) {
        for (;;) {
            const double u = 2.0 * uniform() - 1.0;
            const double v = 2.0 * uniform() - 1.0;
            const double s = u * u + v * v;
            if (s < 1.0 && s > 0.0) {
                const double factor = std::sqrt(-2.0 * std::log(s) / s);
                first = u * factor;
                second = v * factor;
                return;
            }
        }
    }

    /// Key of child stream `child` of the stream keyed `key`. Children
    /// take counters at and above 2^63, which this stream's own words
    /// (counters below 2^63) never reach, so a child key is never one of
    /// its parent's draws. (A naive mix_seed(key, 1) is the parent's
    /// second word.)
    static std::uint64_t child_key(std::uint64_t key, std::uint64_t child) {
        return mix_seed(key, child_domain | child);
    }

  private:
    static constexpr std::uint64_t child_domain = std::uint64_t{1} << 63;
    std::uint64_t key_;
    std::uint64_t counter_ = 0;
};

}  // namespace cellsync
