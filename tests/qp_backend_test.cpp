#include "numerics/qp_backend.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "numerics/rng.h"
#include "qp_oracles.h"

namespace cellsync {
namespace {

using test::kkt_violation;

// Random strictly convex positivity-only problem (x >= 0, no equalities):
// the structure both backends support.
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

TEST(QpBackend, BackendsAgreeOnPositivityOnlyProblems) {
    const Active_set_qp_solver active_set;
    const Nnls_qp_solver nnls;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const Qp_problem p = positivity_problem(4 + seed % 9, seed);
        ASSERT_TRUE(active_set.supports(p));
        ASSERT_TRUE(nnls.supports(p));
        const Qp_result a = active_set.solve(p);
        const Qp_result b = nnls.solve(p);
        ASSERT_TRUE(a.converged);
        ASSERT_TRUE(b.converged);
        ASSERT_EQ(a.x.size(), b.x.size());
        for (std::size_t i = 0; i < a.x.size(); ++i) {
            EXPECT_NEAR(a.x[i], b.x[i], 1e-8) << "seed " << seed << " coord " << i;
            EXPECT_GE(b.x[i], 0.0);
        }
        EXPECT_NEAR(a.objective, b.objective, 1e-8);
        EXPECT_LT(kkt_violation(p, b), 1e-7);
    }
}

TEST(QpBackend, NnlsRejectsEqualityConstrainedProblems) {
    Qp_problem p = positivity_problem(6, 3);
    p.eq_matrix = Matrix(1, 6, 1.0);
    p.eq_rhs = {0.0};
    const Nnls_qp_solver nnls;
    EXPECT_FALSE(nnls.supports(p));
    EXPECT_THROW(nnls.solve(p), std::invalid_argument);
}

TEST(QpBackend, NnlsRejectsNonIdentityInequalities) {
    Qp_problem p = positivity_problem(6, 4);
    p.ineq_matrix(0, 1) = 0.5;  // no longer the identity
    EXPECT_FALSE(Nnls_qp_solver{}.supports(p));
    p = positivity_problem(6, 4);
    p.ineq_rhs[2] = 1.0;  // nonzero rhs
    EXPECT_FALSE(Nnls_qp_solver{}.supports(p));
}

TEST(QpBackend, SupportsRejectsMalformedRhsWithoutReadingIt) {
    // A malformed problem (identity inequality block but missing rhs)
    // must be rejected by supports() — reaching solve_qp's validation via
    // the dispatcher, never read out of bounds.
    Qp_problem p = positivity_problem(6, 8);
    p.ineq_rhs.clear();
    EXPECT_FALSE(Nnls_qp_solver{}.supports(p));
    p.ineq_rhs.assign(3, 0.0);  // too short
    EXPECT_FALSE(Nnls_qp_solver{}.supports(p));
    EXPECT_THROW(make_qp_solver(Qp_backend::automatic)->solve(p), std::invalid_argument);
}

TEST(QpBackend, ActiveSetSupportsEverything) {
    Qp_problem p = positivity_problem(5, 7);
    p.eq_matrix = Matrix(1, 5, 1.0);
    p.eq_rhs = {1.0};
    EXPECT_TRUE(Active_set_qp_solver{}.supports(p));
    const Qp_result r = Active_set_qp_solver{}.solve(p);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(sum(r.x), 1.0, 1e-7);
}

TEST(QpBackend, AutomaticDispatchesPerProblemStructure) {
    const auto automatic = make_qp_solver(Qp_backend::automatic);
    EXPECT_EQ(automatic->name(), "automatic");

    // Positivity-only problem: must match the NNLS fast path's answer.
    const Qp_problem fast = positivity_problem(7, 11);
    const Qp_result via_auto = automatic->solve(fast);
    const Qp_result via_nnls = make_qp_solver(Qp_backend::nnls)->solve(fast);
    for (std::size_t i = 0; i < via_auto.x.size(); ++i) {
        EXPECT_DOUBLE_EQ(via_auto.x[i], via_nnls.x[i]);
    }

    // General problem: falls back to the active-set method.
    Qp_problem general = positivity_problem(5, 13);
    general.eq_matrix = Matrix(1, 5, 1.0);
    general.eq_rhs = {2.0};
    const Qp_result r = automatic->solve(general);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(sum(r.x), 2.0, 1e-7);
}

TEST(QpBackend, FactoryAndNames) {
    EXPECT_EQ(make_qp_solver(Qp_backend::active_set)->name(), "active_set");
    EXPECT_EQ(make_qp_solver(Qp_backend::nnls)->name(), "nnls");
    EXPECT_STREQ(to_string(Qp_backend::automatic), "automatic");
    EXPECT_STREQ(to_string(Qp_backend::nnls), "nnls");
    EXPECT_EQ(qp_backend_from_string("active-set"), Qp_backend::active_set);
    EXPECT_EQ(qp_backend_from_string("auto"), Qp_backend::automatic);
    EXPECT_THROW(qp_backend_from_string("simplex"), std::invalid_argument);
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
