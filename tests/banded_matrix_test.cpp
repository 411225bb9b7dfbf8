// The row-subset kernels of the per-gene normal equations
// (weighted_gram_rows, weighted_transposed_times_rows), which took over
// from the banded layout's row-span kernels when every design became a
// dense Matrix. The contract under test: each returns bit-for-bit the
// scalar reference on the copied-out row subset, whichever of the
// scalar/avx2/fma tables is active, and rejects mismatched shapes.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "dense_kernel_checks.h"
#include "numerics/matrix.h"
#include "numerics/rng.h"

namespace cellsync {
namespace {

using test::expect_bits;
using test::for_each_tier;
using test::random_matrix;
using test::random_vector;
using test::random_weights;

TEST(DenseKernels, RowSubsetKernelsMatchCopyOutReferenceUnderEveryTier) {
    for_each_tier([] {
        Rng rng(99);
        for (int trial = 0; trial < 25; ++trial) {
            const std::size_t m = 1 + rng.index(24);
            const std::size_t n = 1 + rng.index(16);
            const Matrix a = random_matrix(rng, m, n);
            std::vector<std::size_t> rows(1 + rng.index(m));
            for (std::size_t& r : rows) r = rng.index(m);  // duplicates allowed
            const Vector w = random_weights(rng, rows.size());
            const Vector x = random_vector(rng, rows.size());

            Matrix sub(rows.size(), n);
            for (std::size_t r = 0; r < rows.size(); ++r) sub.set_row(r, a.row(rows[r]));
            expect_bits(weighted_gram_rows(a, rows, w), weighted_gram_reference(sub, w));
            expect_bits(weighted_transposed_times_rows(a, rows, w, x),
                        transposed_times_reference(sub, hadamard(w, x)));
        }
    });
}

TEST(DenseKernels, DegenerateShapes) {
    for_each_tier([] {
        const Matrix empty;
        EXPECT_EQ(gram(empty).rows(), 0u);
        EXPECT_EQ(weighted_gram_rows(empty, {}, Vector{}).rows(), 0u);

        // An empty row subset contributes nothing: exact zeros.
        const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
        expect_bits(weighted_gram_rows(a, {}, Vector{}), Matrix(3, 3, 0.0));
        expect_bits(weighted_transposed_times_rows(a, {}, Vector{}, Vector{}),
                    Vector(3, 0.0));

        // All-zero and single-column matrices.
        const Matrix zero(3, 4, 0.0);
        expect_bits(zero * Vector{1.0, 2.0, 3.0, 4.0}, Vector(3, 0.0));
        expect_bits(gram(zero), Matrix(4, 4, 0.0));
        const Matrix col{{2.0}, {0.0}, {-3.0}};
        expect_bits(col * Vector{1.5}, matvec_reference(col, Vector{1.5}));
        expect_bits(gram(col), gram_reference(col));
        expect_bits(weighted_gram_rows(col, {2, 0}, Vector{0.5, 2.0}),
                    weighted_gram_reference(Matrix{{-3.0}, {2.0}}, Vector{0.5, 2.0}));
    });
}

TEST(DenseKernels, DimensionChecksThrow) {
    const Matrix a(3, 2, 1.0);
    EXPECT_THROW(a * Vector{1.0}, std::invalid_argument);
    EXPECT_THROW(transposed_times(a, Vector{1.0}), std::invalid_argument);
    EXPECT_THROW(weighted_gram(a, Vector{1.0}), std::invalid_argument);
    EXPECT_THROW(weighted_gram_rows(a, {0}, Vector{1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(weighted_gram_rows(a, {7}, Vector{1.0}), std::invalid_argument);
    EXPECT_THROW(weighted_transposed_times_rows(a, {0}, Vector{1.0, 2.0}, Vector{1.0}),
                 std::invalid_argument);
    EXPECT_THROW(weighted_transposed_times_rows(a, {9}, Vector{1.0}, Vector{1.0}),
                 std::invalid_argument);
}

}  // namespace
}  // namespace cellsync
