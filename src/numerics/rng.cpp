#include "numerics/rng.h"

#include <algorithm>
#include <stdexcept>

namespace cellsync {

double Rng::uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
    if (lo == hi) return lo;
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

double Rng::normal() { return std::normal_distribution<double>(0.0, 1.0)(engine_); }

double Rng::normal(double mu, double sigma) {
    if (sigma < 0.0) throw std::invalid_argument("Rng::normal: sigma must be non-negative");
    if (sigma == 0.0) return mu;
    return std::normal_distribution<double>(mu, sigma)(engine_);
}

double Rng::truncated_normal(double mu, double sigma, double lo, double hi) {
    if (!(lo <= hi)) throw std::invalid_argument("Rng::truncated_normal: empty interval");
    if (sigma < 0.0) throw std::invalid_argument("Rng::truncated_normal: sigma must be non-negative");
    if (sigma == 0.0) return std::clamp(mu, lo, hi);
    for (int attempt = 0; attempt < 10000; ++attempt) {
        const double x = normal(mu, sigma);
        if (x >= lo && x <= hi) return x;
    }
    return std::clamp(mu, lo, hi);
}

double Rng::lognormal(double mu_log, double sigma_log) {
    if (sigma_log < 0.0) throw std::invalid_argument("Rng::lognormal: sigma must be non-negative");
    return std::lognormal_distribution<double>(mu_log, sigma_log)(engine_);
}

std::size_t Rng::index(std::size_t n) {
    if (n == 0) throw std::invalid_argument("Rng::index: n must be positive");
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
}

Vector Rng::normal_vector(std::size_t n) {
    Vector v(n);
    for (double& x : v) x = normal();
    return v;
}

}  // namespace cellsync
