// Shared scaffolding of the dense-kernel tests (banded_matrix_test,
// packed_banded_test) and of qp_solver_test's bitwise oracle checks:
// bitwise comparisons, random operands and tier forcing.
//
// Tier coverage works two ways: in-process, the tests iterate
// simd::set_tier_for_testing over the tiers the build + CPU support;
// externally, tests/CMakeLists.txt registers extra runs of both binaries
// with CELLSYNC_DISPATCH forced, exercising the env override path end
// to end.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "numerics/matrix.h"
#include "numerics/rng.h"
#include "numerics/simd_dispatch.h"

namespace cellsync::test {

inline void expect_bits(double a, double b) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
        << a << " vs " << b;
}

inline void expect_bits(const Vector& a, const Vector& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) expect_bits(a[i], b[i]);
}

inline void expect_bits(const Matrix& a, const Matrix& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) expect_bits(a(i, j), b(i, j));
    }
}

// Random matrix with about a quarter of its entries exact zeros, so the
// structural zeros of a locally supported basis are exercised too.
inline Matrix random_matrix(Rng& rng, std::size_t rows, std::size_t cols) {
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            m(i, j) = rng.index(4) == 0 ? 0.0 : rng.uniform(-2.0, 2.0);
        }
    }
    return m;
}

inline Vector random_vector(Rng& rng, std::size_t n) {
    Vector x(n);
    for (double& v : x) v = rng.uniform(-3.0, 3.0);
    return x;
}

inline Vector random_weights(Rng& rng, std::size_t n) {
    Vector w(n);
    for (double& v : w) v = 0.1 + std::abs(rng.uniform(-2.0, 2.0));
    return w;
}

// The tiers this build + CPU can actually execute (always at least
// scalar).
inline std::vector<simd::Tier> supported_tiers() {
    std::vector<simd::Tier> tiers{simd::Tier::scalar};
    for (simd::Tier t : {simd::Tier::avx2, simd::Tier::fma}) {
        if (t <= simd::max_supported_tier()) tiers.push_back(t);
    }
    return tiers;
}

// RAII tier forcing so a failed ASSERT cannot leak a forced tier into
// the next test.
class Forced_tier {
  public:
    explicit Forced_tier(simd::Tier t) : ok_(simd::set_tier_for_testing(t)) {}
    ~Forced_tier() { simd::set_tier_for_testing(simd::max_supported_tier()); }
    bool ok() const { return ok_; }

  private:
    bool ok_;
};

// Runs `body` once per supported tier with that tier forced.
template <typename Body>
void for_each_tier(const Body& body) {
    for (simd::Tier tier : supported_tiers()) {
        Forced_tier forced(tier);
        ASSERT_TRUE(forced.ok()) << simd::tier_name(tier);
        SCOPED_TRACE(simd::tier_name(tier));
        body();
    }
}

}  // namespace cellsync::test
