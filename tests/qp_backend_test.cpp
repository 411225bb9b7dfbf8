// The library's two QP solve routes cross-checked against each other:
// the dual active-set method (cold, and on a prepared constraint set)
// and Lawson-Hanson NNLS on positivity-only problems.
#include "numerics/qp_solver.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "numerics/linear_solve.h"
#include "numerics/nnls.h"
#include "numerics/rng.h"
#include "qp_oracles.h"

namespace cellsync {
namespace {

using test::kkt_violation;

// Random strictly convex positivity-only problem (x >= 0, no equalities).
Qp_problem positivity_problem(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    Matrix a(n + 3, n);
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    Qp_problem p;
    p.hessian = gram(a);
    for (std::size_t i = 0; i < n; ++i) p.hessian(i, i) += 0.5;
    p.gradient = rng.normal_vector(n);
    p.eq_matrix = Matrix(0, n);
    p.ineq_matrix = Matrix::identity(n);
    p.ineq_rhs.assign(n, 0.0);
    return p;
}

TEST(QpBackend, DualSolveMatchesNnlsOnPositivityOnlyProblems) {
    const Qp_options options;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const Qp_problem p = positivity_problem(4 + seed % 9, seed);
        const std::size_t n = p.hessian.rows();
        const Qp_result dual = solve_qp_dual(p);
        ASSERT_TRUE(dual.converged);

        // H = L L^T turns 0.5 x'Hx + g'x into 0.5||L^T x - b||^2 + const
        // with L b = -g, so the QP is exactly NNLS in x; the NNLS
        // termination test is dual feasibility.
        const Cholesky_factorization chol(p.hessian);
        const Vector b = chol.forward(scaled(p.gradient, -1.0));
        const Nnls_result nnls =
            solve_nnls(chol.lower().transposed(), b, options.multiplier_tol);
        ASSERT_TRUE(nnls.converged);
        ASSERT_EQ(nnls.x.size(), n);

        Qp_result via_nnls;
        via_nnls.x = nnls.x;
        via_nnls.objective =
            0.5 * dot(nnls.x, p.hessian * nnls.x) + dot(p.gradient, nnls.x);
        for (std::size_t i = 0; i < n; ++i) {
            // Lawson-Hanson keeps coordinates outside the passive set at
            // an exact zero: those are the binding positivity rows.
            if (nnls.x[i] <= options.constraint_tol) via_nnls.active_set.push_back(i);
            EXPECT_NEAR(dual.x[i], nnls.x[i], 1e-8) << "seed " << seed << " coord " << i;
            EXPECT_GE(nnls.x[i], 0.0);
        }
        EXPECT_NEAR(dual.objective, via_nnls.objective, 1e-8);
        EXPECT_LT(kkt_violation(p, via_nnls), 1e-7);
    }
}

TEST(QpBackend, PreparedSolveMatchesColdDualSolve) {
    // The shared-constraint preparation must not change results at all.
    Rng rng(21);
    const std::size_t n = 10;
    Qp_problem p = positivity_problem(n, 17);
    p.eq_matrix = Matrix(2, n);
    for (std::size_t j = 0; j < n; ++j) {
        p.eq_matrix(0, j) = 1.0;
        p.eq_matrix(1, j) = static_cast<double>(j) / static_cast<double>(n);
    }
    p.eq_rhs = {1.0, 0.3};

    const Qp_constraint_prep prep(n, p.eq_matrix, p.eq_rhs, p.ineq_matrix, p.ineq_rhs);
    for (int trial = 0; trial < 4; ++trial) {
        p.gradient = rng.normal_vector(n);
        const Qp_result cold = solve_qp_dual(p);
        const Qp_result warm = solve_qp_dual_prepared(p.hessian, p.gradient, prep);
        ASSERT_EQ(cold.x.size(), warm.x.size());
        for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(cold.x[i], warm.x[i]);
        EXPECT_EQ(cold.active_set, warm.active_set);
    }
}

}  // namespace
}  // namespace cellsync
