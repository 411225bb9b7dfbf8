// Performance: the Goldfarb-Idnani QP solver on deconvolution-shaped
// problems (Nc unknowns, 2 equality rows, dense positivity grid), plus the
// backend race on positivity-only problems (active-set vs the NNLS fast
// path).
#include <algorithm>
#include <cmath>
#include <numbers>

#include "numerics/qp_backend.h"
#include "numerics/qp_solver.h"
#include "numerics/rng.h"
#include "perf_util.h"

namespace {

// Spline-like hat function of half-width 1/4 around `center`.
double hat(double x, double center) { return std::max(0.0, 1.0 - 4.0 * std::abs(x - center)); }

cellsync::Qp_problem make_problem(std::size_t n, std::size_t grid, std::uint64_t seed) {
    using namespace cellsync;
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
        // Smooth overlapping rows, like spline values on a fine grid.
        for (std::size_t j = 0; j < n; ++j) {
            p.ineq_matrix(g, j) = hat(static_cast<double>(g) / static_cast<double>(grid - 1),
                                      static_cast<double>(j) / static_cast<double>(n - 1));
        }
    }
    p.ineq_rhs.assign(grid, 0.0);
    return p;
}

// Goldfarb-Idnani through solve_qp_dual: the constraint reduction and
// the reduced core on every call. The `qp_iterations` counter is the
// dual iteration count of one solve.
void bm_qp_dual(benchmark::State& state) {
    using namespace cellsync;
    const Qp_problem p = make_problem(static_cast<std::size_t>(state.range(0)),
                                      static_cast<std::size_t>(state.range(1)), 3);
    std::size_t iterations = 0;
    for (auto _ : state) {
        const Qp_result r = solve_qp_dual(p);
        iterations = r.iterations;
        benchmark::DoNotOptimize(r.x.data());
    }
    state.counters["qp_iterations"] = static_cast<double>(iterations);
}

// One cross-validation fold fit: 10 train rows of an n-function hat
// basis with a second-difference roughness penalty, the 2 equality rows
// of make_problem, and positivity on a `grid`-point grid. The data dip
// below zero, so positivity binds on part of the grid and the solve takes
// 7 steps with one dual drop (CV's multi-step solves average 7.5).
cellsync::Qp_problem make_cv_fold_problem(std::size_t n, std::size_t grid) {
    using namespace cellsync;
    constexpr std::size_t train_rows = 10;
    Rng rng(1);
    Matrix k(train_rows, n);
    Vector data(train_rows);
    for (std::size_t i = 0; i < train_rows; ++i) {
        const double t = (static_cast<double>(i) + 0.5) / static_cast<double>(train_rows);
        for (std::size_t j = 0; j < n; ++j) {
            k(i, j) = hat(t, static_cast<double>(j) / static_cast<double>(n - 1));
        }
        data[i] = std::cos(2.0 * std::numbers::pi * t) + 0.8 + 0.3 * rng.normal();
    }
    Qp_problem p;
    p.hessian = 2.0 * gram(k);
    const double second_difference[3] = {1.0, -2.0, 1.0};
    for (std::size_t j = 0; j + 2 < n; ++j) {
        for (std::size_t a = 0; a < 3; ++a) {
            for (std::size_t b = 0; b < 3; ++b) {
                p.hessian(j + a, j + b) += 2e-2 * second_difference[a] * second_difference[b];
            }
        }
    }
    p.gradient = -2.0 * transposed_times(k, data);
    p.eq_matrix = Matrix(2, n);
    for (std::size_t j = 0; j < n; ++j) {
        p.eq_matrix(0, j) = 1.0;
        p.eq_matrix(1, j) = static_cast<double>(j) / static_cast<double>(n);
    }
    p.eq_rhs = {2.0, 0.8};
    p.ineq_matrix = Matrix(grid, n);
    for (std::size_t g = 0; g < grid; ++g) {
        for (std::size_t j = 0; j < n; ++j) {
            p.ineq_matrix(g, j) = hat(static_cast<double>(g) / static_cast<double>(grid - 1),
                                      static_cast<double>(j) / static_cast<double>(n - 1));
        }
    }
    p.ineq_rhs.assign(grid, 0.0);
    return p;
}

// The CV shape: as in Kfold_plan, the constraint prep is built once and
// shared, and the loop times one prepared solve of a multi-step fold fit.
void bm_qp_dual_cv(benchmark::State& state) {
    using namespace cellsync;
    const Qp_problem p = make_cv_fold_problem(static_cast<std::size_t>(state.range(0)),
                                              static_cast<std::size_t>(state.range(1)));
    const Qp_constraint_prep prep(p.hessian.rows(), p.eq_matrix, p.eq_rhs, p.ineq_matrix,
                                  p.ineq_rhs);
    std::size_t iterations = 0;
    for (auto _ : state) {
        const Qp_result r = solve_qp_dual_prepared(p.hessian, p.gradient, prep);
        iterations = r.iterations;
        benchmark::DoNotOptimize(r.x.data());
    }
    state.counters["qp_iterations"] = static_cast<double>(iterations);
}

// Positivity-only problem (x >= 0, no equalities): the structure both the
// active-set and NNLS backends support, for a like-for-like race.
cellsync::Qp_problem make_positivity_problem(std::size_t n, std::uint64_t seed) {
    using namespace cellsync;
    Rng rng(seed);
    Matrix a(n + 4, n);
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    Qp_problem p;
    p.hessian = gram(a);
    for (std::size_t i = 0; i < n; ++i) p.hessian(i, i) += 1.0;
    p.gradient = rng.normal_vector(n);
    p.eq_matrix = Matrix(0, n);
    p.ineq_matrix = Matrix::identity(n);
    p.ineq_rhs.assign(n, 0.0);
    return p;
}

void bm_qp_backend(benchmark::State& state, cellsync::Qp_backend backend) {
    using namespace cellsync;
    const Qp_problem p =
        make_positivity_problem(static_cast<std::size_t>(state.range(0)), 5);
    const auto solver = make_qp_solver(backend);
    for (auto _ : state) {
        const Qp_result r = solver->solve(p);
        benchmark::DoNotOptimize(r.x.data());
    }
}

void bm_qp_backend_active_set(benchmark::State& state) {
    bm_qp_backend(state, cellsync::Qp_backend::active_set);
}

void bm_qp_backend_nnls(benchmark::State& state) {
    bm_qp_backend(state, cellsync::Qp_backend::nnls);
}

}  // namespace

BENCHMARK(bm_qp_dual)
    ->Args({12, 51})
    ->Args({18, 101})
    ->Args({36, 101})
    ->Args({18, 201})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_qp_dual_cv)->Args({18, 101})->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_qp_backend_active_set)->Arg(18)->Arg(36)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_qp_backend_nnls)->Arg(18)->Arg(36)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
    return cellsync::bench::run_perf_harness(argc, argv, "perf_qp");
}
