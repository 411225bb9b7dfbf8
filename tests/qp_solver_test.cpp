#include "numerics/qp_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "dense_kernel_checks.h"
#include "numerics/rng.h"
#include "qp_oracles.h"

namespace cellsync {
namespace {

using test::solve_qp;
using test::kkt_violation;

Qp_problem unconstrained_bowl() {
    // min (x0-1)^2 + (x1-2)^2.
    Qp_problem p;
    p.hessian = Matrix{{2.0, 0.0}, {0.0, 2.0}};
    p.gradient = {-2.0, -4.0};
    p.eq_matrix = Matrix(0, 2);
    p.ineq_matrix = Matrix(0, 2);
    return p;
}

TEST(QpSolver, UnconstrainedMinimum) {
    const Qp_result r = solve_qp(unconstrained_bowl());
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[0], 1.0, 1e-9);
    EXPECT_NEAR(r.x[1], 2.0, 1e-9);
    EXPECT_NEAR(r.objective, -5.0, 1e-9);  // 0.5 x'Hx + g'x at (1,2)
}

TEST(QpSolver, ActiveInequalityBindsAtOptimum) {
    // Same bowl, but require x1 <= 1, i.e. -x1 >= -1.
    Qp_problem p = unconstrained_bowl();
    p.ineq_matrix = Matrix{{0.0, -1.0}};
    p.ineq_rhs = {-1.0};
    const Qp_result r = solve_qp(p);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[0], 1.0, 1e-9);
    EXPECT_NEAR(r.x[1], 1.0, 1e-9);
    ASSERT_EQ(r.active_set.size(), 1u);
    EXPECT_EQ(r.active_set[0], 0u);
    EXPECT_LT(kkt_violation(p, r), 1e-7);
}

TEST(QpSolver, InactiveInequalityIgnored) {
    Qp_problem p = unconstrained_bowl();
    p.ineq_matrix = Matrix{{0.0, -1.0}};
    p.ineq_rhs = {-100.0};  // x1 <= 100: never binds
    const Qp_result r = solve_qp(p);
    EXPECT_NEAR(r.x[1], 2.0, 1e-9);
    EXPECT_TRUE(r.active_set.empty());
}

TEST(QpSolver, EqualityConstraintRespected) {
    // min (x0-1)^2 + (x1-2)^2 s.t. x0 + x1 = 1 -> x = (0, 1).
    Qp_problem p = unconstrained_bowl();
    p.eq_matrix = Matrix{{1.0, 1.0}};
    p.eq_rhs = {1.0};
    const Qp_result r = solve_qp(p, {}, Vector{0.5, 0.5});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[0], 0.0, 1e-9);
    EXPECT_NEAR(r.x[1], 1.0, 1e-9);
    EXPECT_LT(kkt_violation(p, r), 1e-8);
}

TEST(QpSolver, EqualityPlusInequality) {
    // min x0^2 + x1^2 s.t. x0 + x1 = 1, x0 >= 0.7.
    Qp_problem p;
    p.hessian = Matrix{{2.0, 0.0}, {0.0, 2.0}};
    p.gradient = {0.0, 0.0};
    p.eq_matrix = Matrix{{1.0, 1.0}};
    p.eq_rhs = {1.0};
    p.ineq_matrix = Matrix{{1.0, 0.0}};
    p.ineq_rhs = {0.7};
    const Qp_result r = solve_qp(p, {}, Vector{0.8, 0.2});
    EXPECT_NEAR(r.x[0], 0.7, 1e-9);
    EXPECT_NEAR(r.x[1], 0.3, 1e-9);
    EXPECT_LT(kkt_violation(p, r), 1e-8);
}

TEST(QpSolver, NonNegativityBox) {
    // min (x0+1)^2 + (x1-1)^2 s.t. x >= 0 -> x = (0, 1).
    Qp_problem p;
    p.hessian = Matrix{{2.0, 0.0}, {0.0, 2.0}};
    p.gradient = {2.0, -2.0};
    p.eq_matrix = Matrix(0, 2);
    p.ineq_matrix = Matrix::identity(2);
    p.ineq_rhs = {0.0, 0.0};
    const Qp_result r = solve_qp(p);
    EXPECT_NEAR(r.x[0], 0.0, 1e-9);
    EXPECT_NEAR(r.x[1], 1.0, 1e-9);
}

TEST(QpSolver, ProvidedInfeasibleStartRejected) {
    Qp_problem p = unconstrained_bowl();
    p.ineq_matrix = Matrix{{1.0, 0.0}};
    p.ineq_rhs = {0.0};
    EXPECT_THROW(solve_qp(p, {}, Vector{-1.0, 0.0}), std::invalid_argument);
}

TEST(QpSolver, ShapeValidation) {
    Qp_problem p = unconstrained_bowl();
    p.gradient = {1.0};
    EXPECT_THROW(solve_qp(p), std::invalid_argument);
    p = unconstrained_bowl();
    p.eq_matrix = Matrix{{1.0, 1.0}};
    p.eq_rhs = {};
    EXPECT_THROW(solve_qp(p), std::invalid_argument);
    p = unconstrained_bowl();
    p.hessian = Matrix(2, 3);
    EXPECT_THROW(solve_qp(p), std::invalid_argument);
}

TEST(QpSolver, DegeneratePositivityGridHandled) {
    // Many redundant copies of the same constraint x0 >= 0 must not break
    // the working-set logic.
    Qp_problem p;
    p.hessian = Matrix{{2.0, 0.0}, {0.0, 2.0}};
    p.gradient = {2.0, -2.0};
    p.eq_matrix = Matrix(0, 2);
    p.ineq_matrix = Matrix(6, 2);
    for (std::size_t r = 0; r < 6; ++r) p.ineq_matrix(r, 0) = 1.0;
    p.ineq_rhs.assign(6, 0.0);
    const Qp_result result = solve_qp(p);
    EXPECT_NEAR(result.x[0], 0.0, 1e-9);
    EXPECT_NEAR(result.x[1], 1.0, 1e-9);
}

TEST(QpDualSolver, MatchesPrimalOnBasicProblems) {
    // Same optimum from both methods on a mix of constraint structures.
    {
        const Qp_result r = solve_qp_dual(unconstrained_bowl());
        EXPECT_NEAR(r.x[0], 1.0, 1e-8);
        EXPECT_NEAR(r.x[1], 2.0, 1e-8);
    }
    {
        Qp_problem p = unconstrained_bowl();
        p.ineq_matrix = Matrix{{0.0, -1.0}};
        p.ineq_rhs = {-1.0};
        const Qp_result r = solve_qp_dual(p);
        EXPECT_NEAR(r.x[1], 1.0, 1e-8);
        EXPECT_LT(kkt_violation(p, r), 1e-6);
    }
    {
        Qp_problem p;
        p.hessian = Matrix{{2.0, 0.0}, {0.0, 2.0}};
        p.gradient = {2.0, -2.0};
        p.eq_matrix = Matrix(0, 2);
        p.ineq_matrix = Matrix::identity(2);
        p.ineq_rhs = {0.0, 0.0};
        const Qp_result r = solve_qp_dual(p);
        EXPECT_NEAR(r.x[0], 0.0, 1e-8);
        EXPECT_NEAR(r.x[1], 1.0, 1e-8);
    }
}

TEST(QpDualSolver, EqualityConstraintsViaNullSpace) {
    // min (x0-1)^2 + (x1-2)^2 s.t. x0 + x1 = 1 -> (0, 1).
    Qp_problem p = unconstrained_bowl();
    p.eq_matrix = Matrix{{1.0, 1.0}};
    p.eq_rhs = {1.0};
    const Qp_result r = solve_qp_dual(p);
    EXPECT_NEAR(r.x[0], 0.0, 1e-8);
    EXPECT_NEAR(r.x[1], 1.0, 1e-8);
    // With an inequality on top: x0 >= 0.7 -> (0.7, 0.3).
    p.hessian = Matrix{{2.0, 0.0}, {0.0, 2.0}};
    p.gradient = {0.0, 0.0};
    p.ineq_matrix = Matrix{{1.0, 0.0}};
    p.ineq_rhs = {0.7};
    const Qp_result rc = solve_qp_dual(p);
    EXPECT_NEAR(rc.x[0], 0.7, 1e-8);
    EXPECT_NEAR(rc.x[1], 0.3, 1e-8);
}

TEST(QpDualSolver, FullyDeterminedByEqualities) {
    Qp_problem p = unconstrained_bowl();
    p.eq_matrix = Matrix{{1.0, 0.0}, {0.0, 1.0}};
    p.eq_rhs = {5.0, 6.0};
    const Qp_result r = solve_qp_dual(p);
    EXPECT_NEAR(r.x[0], 5.0, 1e-8);
    EXPECT_NEAR(r.x[1], 6.0, 1e-8);
}

TEST(QpDualSolver, InconsistentEqualitiesThrow) {
    Qp_problem p = unconstrained_bowl();
    p.eq_matrix = Matrix{{1.0, 1.0}, {1.0, 1.0}};
    p.eq_rhs = {1.0, 2.0};
    EXPECT_THROW(solve_qp_dual(p), std::runtime_error);
}

TEST(QpDualSolver, InfeasibleInequalitiesThrow) {
    Qp_problem p = unconstrained_bowl();
    p.ineq_matrix = Matrix{{1.0, 0.0}, {-1.0, 0.0}};
    p.ineq_rhs = {1.0, 0.0};  // x0 >= 1 and x0 <= 0
    EXPECT_THROW(solve_qp_dual(p), std::runtime_error);
}

TEST(QpDualSolver, RedundantConstraintGridHandled) {
    // Many duplicated/near-parallel rows — the degenerate case that
    // motivates using the dual method in the deconvolver.
    Qp_problem p;
    p.hessian = Matrix{{2.0, 0.0}, {0.0, 2.0}};
    p.gradient = {2.0, -2.0};
    p.eq_matrix = Matrix(0, 2);
    p.ineq_matrix = Matrix(40, 2);
    for (std::size_t r = 0; r < 40; ++r) {
        p.ineq_matrix(r, 0) = 1.0;
        p.ineq_matrix(r, 1) = 1e-6 * static_cast<double>(r);  // nearly parallel
    }
    p.ineq_rhs.assign(40, 0.0);
    const Qp_result r = solve_qp_dual(p);
    EXPECT_NEAR(r.x[0], 0.0, 1e-6);
    EXPECT_NEAR(r.x[1], 1.0, 1e-6);
}

TEST(QpWarmStart, PrimalInitialWorkingSetMatchesColdSolve) {
    // The working-set warm start must land on the same optimum the cold
    // primal solve finds, in fewer or equal iterations.
    Qp_problem p = unconstrained_bowl();
    p.ineq_matrix = Matrix{{0.0, -1.0}, {1.0, 0.0}};
    p.ineq_rhs = {-1.0, 0.0};  // x1 <= 1 (binding), x0 >= 0 (slack)
    const Qp_result cold = solve_qp(p);
    ASSERT_EQ(cold.active_set, (std::vector<std::size_t>{0}));

    const Qp_result warm = solve_qp(p, {}, cold.x, cold.active_set);
    EXPECT_TRUE(warm.converged);
    EXPECT_NEAR(warm.x[0], cold.x[0], 1e-9);
    EXPECT_NEAR(warm.x[1], cold.x[1], 1e-9);
    EXPECT_LE(warm.iterations, cold.iterations);

    // A stale hint (the slack constraint) is shed, not fatal.
    const Qp_result stale = solve_qp(p, {}, cold.x, {0, 1});
    EXPECT_NEAR(stale.x[1], cold.x[1], 1e-9);
    EXPECT_LT(kkt_violation(p, stale), 1e-6);

    EXPECT_THROW(solve_qp(p, {}, cold.x, {5}), std::invalid_argument);
}

// Property suite: random strictly convex problems with random box
// constraints must satisfy the KKT conditions at the reported optimum.
class QpRandomProblems : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QpRandomProblems, KktHoldsAtReportedOptimum) {
    Rng rng(GetParam());
    const std::size_t n = 3 + rng.index(6);

    // SPD Hessian H = A'A + n I.
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    Matrix h = gram(a);
    for (std::size_t i = 0; i < n; ++i) h(i, i) += static_cast<double>(n);

    Qp_problem p;
    p.hessian = h;
    p.gradient = rng.normal_vector(n);
    p.eq_matrix = Matrix(0, n);
    p.ineq_matrix = Matrix::identity(n);  // x >= 0
    p.ineq_rhs.assign(n, 0.0);

    const Qp_result r = solve_qp(p);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(kkt_violation(p, r), 1e-6);
    for (double xi : r.x) EXPECT_GE(xi, -1e-9);

    // The dual method must land on the same optimum.
    const Qp_result rd = solve_qp_dual(p);
    EXPECT_LT(kkt_violation(p, rd), 1e-6);
    EXPECT_NEAR(rd.objective, r.objective, 1e-6 * std::max(1.0, std::abs(r.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QpRandomProblems,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

// ---------------------------------------------------------------------------
// solve_qp_dual_reduced against test::allocating_gi_reduced, bit for bit:
// x, active set, iteration count and objective, or the same exception
// type and message.
// ---------------------------------------------------------------------------

// A reduced QP: the Hessian and gradient the core takes, with the prep
// whose C Z / d - C x0 blocks both solvers read.
struct Reduced_case {
    std::string name;
    std::shared_ptr<const Qp_constraint_prep> prep;
    Matrix hessian;
    Vector gradient;
};

// Z'HZ and Z'(H x0 + g) of the full problem over its prep, summed as
// solve_qp_dual_prepared sums them, so the reduced problems are the ones
// solve_qp_dual (and bench/perf_qp) hands the core.
Reduced_case reduce(std::string name, const Qp_problem& p) {
    auto prep = std::make_shared<const Qp_constraint_prep>(p.hessian.rows(), p.eq_matrix,
                                                           p.eq_rhs, p.ineq_matrix, p.ineq_rhs);
    const Matrix& z = prep->z_basis();
    const Matrix hz = p.hessian * z;
    Matrix hr(z.cols(), z.cols());
    for (std::size_t i = 0; i < z.cols(); ++i) {
        for (std::size_t k = 0; k < z.rows(); ++k) {
            for (std::size_t j = 0; j < z.cols(); ++j) hr(i, j) += z(k, i) * hz(k, j);
        }
    }
    return {std::move(name), prep, std::move(hr),
            transposed_times(z, p.hessian * prep->x_particular() + p.gradient)};
}

// The deconvolution shape of bench/perf_qp.cpp: n unknowns, 2 equality
// rows, a dense positivity grid of overlapping hat rows.
Qp_problem perf_qp_problem(std::size_t n, std::size_t grid, std::uint64_t seed) {
    Rng rng(seed);
    Matrix a(n + 4, n);
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    Qp_problem p;
    p.hessian = gram(a);
    for (std::size_t i = 0; i < n; ++i) p.hessian(i, i) += 1.0;
    p.gradient = rng.normal_vector(n);
    p.eq_matrix = Matrix(2, n);
    for (std::size_t j = 0; j < n; ++j) {
        p.eq_matrix(0, j) = 1.0;
        p.eq_matrix(1, j) = static_cast<double>(j) / static_cast<double>(n);
    }
    p.eq_rhs = {0.0, 0.0};
    p.ineq_matrix = Matrix(grid, n);
    for (std::size_t g = 0; g < grid; ++g) {
        for (std::size_t j = 0; j < n; ++j) {
            const double x = static_cast<double>(g) / static_cast<double>(grid - 1);
            const double c = static_cast<double>(j) / static_cast<double>(n - 1);
            p.ineq_matrix(g, j) = std::max(0.0, 1.0 - 4.0 * std::abs(x - c));
        }
    }
    p.ineq_rhs.assign(grid, 0.0);
    return p;
}

// Random SPD Hessian and dense random inequality rows whose right-hand
// sides sit above the unconstrained optimum's reach, with a gradient
// scaled up so many rows are violated at once: multi-step solves whose
// dual steps drop constraints again.
Qp_problem multi_step_problem(std::uint64_t seed) {
    Rng rng(seed);
    const std::size_t n = 4 + rng.index(13);
    const std::size_t mi = n + rng.index(3 * n);
    Matrix a(n + 2, n);
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    Qp_problem p;
    p.hessian = gram(a);
    for (std::size_t i = 0; i < n; ++i) p.hessian(i, i) += 0.5;
    p.gradient = scaled(rng.normal_vector(n), 20.0);
    p.eq_matrix = Matrix(0, n);
    p.ineq_matrix = Matrix(mi, n);
    for (std::size_t r = 0; r < mi; ++r)
        for (std::size_t j = 0; j < n; ++j) p.ineq_matrix(r, j) = rng.normal();
    p.ineq_rhs = Vector(mi);
    for (double& v : p.ineq_rhs) v = rng.uniform(-1.0, 0.5);
    return p;
}

// More rows than unknowns over a nearly flat Hessian: the dual step can
// admit a row that depends on the active ones, and the next step's
// N'H^{-1}N is singular. The seeds mix that throw with infeasible sets
// and clean solves.
Qp_problem flat_overconstrained_problem(std::uint64_t seed) {
    Rng rng(seed);
    const std::size_t n = 2 + rng.index(2);
    const std::size_t mi = 3 + rng.index(6);
    Qp_problem p;
    p.hessian = Matrix::identity(n);
    const double curvature = std::pow(10.0, -rng.uniform(3.0, 9.0));
    for (std::size_t i = 0; i < n; ++i) p.hessian(i, i) = curvature;
    p.gradient = rng.normal_vector(n);
    p.eq_matrix = Matrix(0, n);
    p.ineq_matrix = Matrix(mi, n);
    for (std::size_t r = 0; r < mi; ++r)
        for (std::size_t j = 0; j < n; ++j) p.ineq_matrix(r, j) = rng.normal();
    p.ineq_rhs = Vector(mi);
    for (double& v : p.ineq_rhs) v = rng.uniform(-1.0, 1.0);
    return p;
}

// What one solve produced: a result or an exception's type and message.
struct Outcome {
    std::optional<Qp_result> result;
    std::string error_type;
    std::string error_message;
};

template <typename Solve>
Outcome outcome_of(const Solve& solve) {
    Outcome out;
    try {
        out.result = solve();
    } catch (const std::exception& e) {
        out.error_type = typeid(e).name();
        out.error_message = e.what();
    }
    return out;
}

Outcome oracle_outcome(const Reduced_case& c) {
    return outcome_of([&] {
        return test::allocating_gi_reduced(c.hessian, c.gradient, c.prep->reduced_inequality(),
                                           c.prep->reduced_ineq_rhs());
    });
}

Outcome core_outcome(const Reduced_case& c) {
    return outcome_of([&] { return solve_qp_dual_reduced(c.hessian, c.gradient, *c.prep); });
}

void expect_same_outcome(const Outcome& expected, const Outcome& actual) {
    ASSERT_EQ(expected.result.has_value(), actual.result.has_value())
        << "oracle: " << expected.error_message << " / core: " << actual.error_message;
    if (!expected.result) {
        EXPECT_EQ(expected.error_type, actual.error_type);
        EXPECT_EQ(expected.error_message, actual.error_message);
        return;
    }
    const Qp_result& e = *expected.result;
    const Qp_result& a = *actual.result;
    test::expect_bits(e.x, a.x);
    EXPECT_EQ(e.active_set, a.active_set);
    EXPECT_EQ(e.iterations, a.iterations);
    test::expect_bits(e.objective, a.objective);
    EXPECT_EQ(e.converged, a.converged);
}

void expect_matches_oracle(const Reduced_case& c) {
    SCOPED_TRACE(c.name);
    expect_same_outcome(oracle_outcome(c), core_outcome(c));
}

std::vector<Reduced_case> perf_qp_cases() {
    std::vector<Reduced_case> cases;
    const std::size_t shapes[][2] = {{12, 51}, {18, 101}, {36, 101}, {18, 201}};
    for (const auto& shape : shapes) {
        for (std::uint64_t seed = 3; seed < 7; ++seed) {
            cases.push_back(reduce("perf_qp " + std::to_string(shape[0]) + "/" +
                                       std::to_string(shape[1]) + " seed " +
                                       std::to_string(seed),
                                   perf_qp_problem(shape[0], shape[1], seed)));
        }
    }
    return cases;
}

TEST(QpDualWorkspace, MatchesAllocatingOracleOnPerfQpShapes) {
    const std::vector<Reduced_case> cases = perf_qp_cases();
    test::for_each_tier([&] {
        for (const Reduced_case& c : cases) expect_matches_oracle(c);
    });
    // The shapes take multi-step solves, so M is grown and shrunk.
    std::size_t multi_step = 0;
    for (const Reduced_case& c : cases) {
        const Outcome o = core_outcome(c);
        if (o.result && o.result->iterations > 1) ++multi_step;
    }
    EXPECT_GE(multi_step, cases.size() * 3 / 4);
}

TEST(QpDualWorkspace, MatchesAllocatingOracleOnMultiStepSolvesWithDrops) {
    std::vector<Reduced_case> cases;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        cases.push_back(reduce("multi-step seed " + std::to_string(seed),
                               multi_step_problem(seed)));
    }
    test::for_each_tier([&] {
        for (const Reduced_case& c : cases) expect_matches_oracle(c);
    });
    // Each inner step either admits the new row or drops an active one,
    // so iterations beyond the final active-set size count the drops.
    std::size_t with_drops = 0;
    for (const Reduced_case& c : cases) {
        const Outcome o = core_outcome(c);
        if (o.result && o.result->iterations > o.result->active_set.size() + 1) ++with_drops;
    }
    EXPECT_GE(with_drops, 10u);
}

TEST(QpDualWorkspace, ThrowsLikeTheOracle) {
    std::vector<Reduced_case> cases;
    {
        // Infeasible: x0 >= 1 and x0 <= 0.
        Qp_problem p = unconstrained_bowl();
        p.ineq_matrix = Matrix{{1.0, 0.0}, {-1.0, 0.0}};
        p.ineq_rhs = {1.0, 0.0};
        cases.push_back(reduce("infeasible", p));
    }
    {
        // Not positive definite, even with the ridge.
        Qp_problem p = unconstrained_bowl();
        p.hessian = Matrix{{-2.0, 0.0}, {0.0, 2.0}};
        p.ineq_matrix = Matrix{{1.0, 0.0}};
        p.ineq_rhs = {0.0};
        cases.push_back(reduce("not PD", p));
    }
    std::size_t singular = 0;
    for (std::uint64_t seed = 1; seed <= 80; ++seed) {
        Reduced_case c = reduce("flat seed " + std::to_string(seed),
                                flat_overconstrained_problem(seed));
        if (oracle_outcome(c).error_message.find("singular") != std::string::npos) ++singular;
        cases.push_back(std::move(c));
    }
    EXPECT_GE(singular, 3u) << "the singular N'H^{-1}N path is not exercised";

    ASSERT_FALSE(oracle_outcome(cases[0]).result.has_value());
    EXPECT_EQ(oracle_outcome(cases[0]).error_message, "solve_qp_dual: constraints are infeasible");
    ASSERT_FALSE(oracle_outcome(cases[1]).result.has_value());
    EXPECT_EQ(oracle_outcome(cases[1]).error_message,
              "cholesky: matrix is not positive definite");
    test::for_each_tier([&] {
        for (const Reduced_case& c : cases) expect_matches_oracle(c);
    });
}

TEST(QpDualWorkspace, OneThreadAlternatingShapesAndThrowsStillMatches) {
    // The workspace persists across calls on a thread: a big solve, one
    // with no inequality rows, one that throws mid-iteration and shapes
    // that shrink and grow again must each see only their own state. Runs
    // at the active tier, so the CELLSYNC_DISPATCH ctest legs cover it.
    Qp_problem no_rows = perf_qp_problem(12, 51, 9);
    no_rows.ineq_matrix = Matrix(0, 12);
    no_rows.ineq_rhs.clear();
    Reduced_case singular;
    for (std::uint64_t seed = 1; seed <= 80; ++seed) {
        Reduced_case c = reduce("flat seed " + std::to_string(seed),
                                flat_overconstrained_problem(seed));
        if (oracle_outcome(c).error_message.find("singular") != std::string::npos) {
            singular = std::move(c);
            break;
        }
    }
    ASSERT_TRUE(singular.prep);
    const std::vector<Reduced_case> sequence = {
        reduce("36/101", perf_qp_problem(36, 101, 3)),
        reduce("no inequality rows", no_rows),
        singular,
        reduce("18/201", perf_qp_problem(18, 201, 4)),
        reduce("multi-step 7", multi_step_problem(7)),
        reduce("12/51", perf_qp_problem(12, 51, 5)),
        singular,
        reduce("no inequality rows again", no_rows),
        reduce("36/101 again", perf_qp_problem(36, 101, 3)),
        reduce("multi-step 11", multi_step_problem(11)),
    };
    // Oracle outcomes first, so every core solve below follows another
    // core solve of a different shape.
    std::vector<Outcome> expected;
    for (const Reduced_case& c : sequence) expected.push_back(oracle_outcome(c));
    for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < sequence.size(); ++i) {
            SCOPED_TRACE(sequence[i].name);
            expect_same_outcome(expected[i], core_outcome(sequence[i]));
        }
    }
}

TEST(QpDualWorkspace, RejectsAHessianOfTheWrongSize) {
    const Reduced_case c = reduce("18/101", perf_qp_problem(18, 101, 3));
    EXPECT_THROW(solve_qp_dual_reduced(Matrix::identity(17), Vector(17, 0.0), *c.prep),
                 std::invalid_argument);
    EXPECT_THROW(solve_qp_dual_reduced(c.hessian, Vector(3, 0.0), *c.prep),
                 std::invalid_argument);
}

}  // namespace
}  // namespace cellsync
