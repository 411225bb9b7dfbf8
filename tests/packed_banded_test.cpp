// The chunked dense product kernels and the runtime ISA dispatch seam
// they run through; the packed band layout these checks used to cover
// is gone, and every design is a dense Matrix.
//
// The contract under test: every chunked kernel in numerics/matrix.cpp
// returns bit-for-bit the scalar reference result whichever of the
// scalar/avx2/fma tables is active, non-finite values propagate (no
// value-based zero skip), and the tier metadata is consistent.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dense_kernel_checks.h"
#include "numerics/matrix.h"
#include "numerics/rng.h"
#include "numerics/simd_dispatch.h"

namespace cellsync {
namespace {

using test::expect_bits;
using test::for_each_tier;
using test::random_matrix;
using test::random_vector;
using test::random_weights;

TEST(DenseKernels, ChunkedKernelsMatchReferenceBitwiseUnderEveryTier) {
    for_each_tier([] {
        Rng rng(20260807);
        for (int trial = 0; trial < 25; ++trial) {
            const std::size_t m = 1 + rng.index(24);
            const std::size_t n = 1 + rng.index(16);
            const Matrix a = random_matrix(rng, m, n);
            const Vector x = random_vector(rng, n);
            const Vector z = random_vector(rng, m);
            const Vector w = random_weights(rng, m);
            expect_bits(a * x, matvec_reference(a, x));
            expect_bits(transposed_times(a, z), transposed_times_reference(a, z));
            expect_bits(gram(a), gram_reference(a));
            expect_bits(weighted_gram(a, w), weighted_gram_reference(a, w));
        }
    });
}

TEST(DenseKernels, NonFinitePropagates) {
    for_each_tier([] {
        const double nan = std::numeric_limits<double>::quiet_NaN();
        const double inf = std::numeric_limits<double>::infinity();
        Matrix a(2, 3, 0.0);
        a(0, 1) = nan;
        a(1, 2) = inf;
        const Vector y = a * Vector{1.0, 1.0, 1.0};
        EXPECT_TRUE(std::isnan(y[0]));
        EXPECT_TRUE(std::isinf(y[1]));
        EXPECT_TRUE(std::isnan(gram(a)(1, 1)));
        EXPECT_TRUE(std::isnan(weighted_gram_rows(a, {0}, Vector{1.0})(1, 1)));
        EXPECT_TRUE(std::isinf(weighted_transposed_times_rows(a, {1}, {1.0}, {1.0})[2]));

        // No value-based zero skip: a structural zero times Inf is NaN.
        const Vector z = a * Vector{inf, 0.0, 0.0};
        EXPECT_TRUE(std::isnan(z[0]));
        EXPECT_TRUE(std::isnan(z[1]));
        EXPECT_TRUE(std::isnan(weighted_transposed_times_rows(a, {1}, {1.0}, {inf})[0]));
    });
}

TEST(SimdDispatch, TierMetadataIsConsistent) {
    // The startup-resolved tier is executable on this machine.
    EXPECT_LE(simd::active_tier(), simd::max_supported_tier());
    EXPECT_NE(simd::active_tier_origin(), nullptr);

    EXPECT_STREQ(simd::tier_name(simd::Tier::scalar), "scalar");
    EXPECT_STREQ(simd::tier_name(simd::Tier::avx2), "avx2");
    EXPECT_STREQ(simd::tier_name(simd::Tier::fma), "fma");

    // Forcing a supported tier works and is visible; scalar always is.
    ASSERT_TRUE(simd::set_tier_for_testing(simd::Tier::scalar));
    EXPECT_EQ(simd::active_tier(), simd::Tier::scalar);
    EXPECT_STREQ(simd::active_tier_origin(), "test");
    EXPECT_EQ(simd::kernels().tier, simd::Tier::scalar);
    ASSERT_TRUE(simd::set_tier_for_testing(simd::max_supported_tier()));
}

}  // namespace
}  // namespace cellsync
