// Test-only QP oracles.
//
// - The primal active-set method (solve_qp with its feasible-start and
//   KKT-step helpers) and kkt_violation: an independent route to the
//   optimum that the Goldfarb-Idnani solver is checked against. Nothing
//   in src/ calls either.
// - allocating_gi_reduced: the Goldfarb-Idnani reduced core as it was
//   before its per-thread workspace, kept verbatim (minus telemetry) as
//   the bit-level ground truth for solve_qp_dual_reduced. It rebuilds
//   N'H^{-1}N and its LU from scratch on every inner step and scans the
//   constraint rows with the dispatched matvec.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "numerics/linear_solve.h"
#include "numerics/qp_solver.h"
#include "numerics/simd_dispatch.h"

namespace cellsync::test {

/// ||p|| below which a primal step is "zero".
inline constexpr double primal_step_tol = 1e-12;

inline void validate(const Qp_problem& p) {
    const std::size_t n = p.hessian.rows();
    if (p.hessian.cols() != n) throw std::invalid_argument("solve_qp: Hessian must be square");
    if (p.gradient.size() != n) throw std::invalid_argument("solve_qp: gradient length mismatch");
    if (p.eq_matrix.rows() != p.eq_rhs.size()) {
        throw std::invalid_argument("solve_qp: equality rhs length mismatch");
    }
    if (p.eq_matrix.rows() > 0 && p.eq_matrix.cols() != n) {
        throw std::invalid_argument("solve_qp: equality matrix width mismatch");
    }
    if (p.ineq_matrix.rows() != p.ineq_rhs.size()) {
        throw std::invalid_argument("solve_qp: inequality rhs length mismatch");
    }
    if (p.ineq_matrix.rows() > 0 && p.ineq_matrix.cols() != n) {
        throw std::invalid_argument("solve_qp: inequality matrix width mismatch");
    }
}

inline double eq_violation(const Qp_problem& p, const Vector& x) {
    if (p.eq_matrix.rows() == 0) return 0.0;
    const Vector r = p.eq_matrix * x - p.eq_rhs;
    return norm_inf(r);
}

inline double ineq_violation(const Qp_problem& p, const Vector& x) {
    double worst = 0.0;
    for (std::size_t i = 0; i < p.ineq_matrix.rows(); ++i) {
        const double slack = dot(p.ineq_matrix.row(i), x) - p.ineq_rhs[i];
        worst = std::max(worst, -slack);
    }
    return worst;
}

inline bool is_feasible(const Qp_problem& p, const Vector& x, double tol) {
    return eq_violation(p, x) <= tol && ineq_violation(p, x) <= tol;
}

inline Vector find_feasible_start(const Qp_problem& p, double tol) {
    const std::size_t n = p.hessian.rows();
    const Vector zero(n, 0.0);
    if (is_feasible(p, zero, tol)) return zero;
    if (p.eq_matrix.rows() > 0) {
        const Vector x = qr_least_squares(p.eq_matrix, p.eq_rhs);
        if (is_feasible(p, x, tol)) return x;
    }
    throw std::runtime_error(
        "solve_qp: could not construct a feasible starting point; pass one explicitly");
}

// Assemble and solve the KKT system for the step p and multipliers, given
// the working set of inequality indices. Returns {p, multipliers-for-W}.
struct Kkt_step {
    Vector p;
    Vector eq_multipliers;
    Vector w_multipliers;
};

inline Kkt_step solve_kkt(const Qp_problem& prob, const Vector& x,
                          const std::vector<std::size_t>& working, double ridge) {
    const std::size_t n = prob.hessian.rows();
    const std::size_t me = prob.eq_matrix.rows();
    const std::size_t mw = working.size();
    const std::size_t dim = n + me + mw;

    Matrix kkt(dim, dim);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) kkt(i, j) = prob.hessian(i, j);
        kkt(i, i) += ridge;
    }
    for (std::size_t r = 0; r < me; ++r) {
        for (std::size_t j = 0; j < n; ++j) {
            kkt(n + r, j) = prob.eq_matrix(r, j);
            kkt(j, n + r) = prob.eq_matrix(r, j);
        }
    }
    for (std::size_t r = 0; r < mw; ++r) {
        for (std::size_t j = 0; j < n; ++j) {
            kkt(n + me + r, j) = prob.ineq_matrix(working[r], j);
            kkt(j, n + me + r) = prob.ineq_matrix(working[r], j);
        }
    }

    Vector rhs(dim, 0.0);
    const Vector hx = prob.hessian * x;
    for (std::size_t i = 0; i < n; ++i) rhs[i] = -(hx[i] + prob.gradient[i]);
    // Constraint rows carry the current residuals so each step *restores*
    // exact feasibility on the working manifold instead of freezing in any
    // drift the relaxed ratio test allowed: A(x+p) = b, C_W(x+p) = d_W.
    for (std::size_t r = 0; r < me; ++r) {
        rhs[n + r] = prob.eq_rhs[r] - dot(prob.eq_matrix.row(r), x);
    }
    for (std::size_t r = 0; r < mw; ++r) {
        rhs[n + me + r] =
            prob.ineq_rhs[working[r]] - dot(prob.ineq_matrix.row(working[r]), x);
    }

    const Vector sol = ldlt_solve(kkt, rhs);
    Kkt_step step;
    step.p.assign(sol.begin(), sol.begin() + static_cast<std::ptrdiff_t>(n));
    step.eq_multipliers.assign(sol.begin() + static_cast<std::ptrdiff_t>(n),
                               sol.begin() + static_cast<std::ptrdiff_t>(n + me));
    step.w_multipliers.assign(sol.begin() + static_cast<std::ptrdiff_t>(n + me), sol.end());
    return step;
}

/// The primal active-set method. `start` must be feasible if provided;
/// if omitted, the solver tries the zero vector, then the minimum-norm
/// solution of the equality system. `initial_working` warm-starts the
/// working set (inequality row indices); rows that do not belong are shed
/// by the multiplier test. Throws std::invalid_argument for malformed
/// shapes or out-of-range working indices and std::runtime_error if no
/// feasible start can be constructed or the iteration limit is exceeded.
inline Qp_result solve_qp(const Qp_problem& problem, const Qp_options& options = {},
                          const std::optional<Vector>& start = std::nullopt,
                          const std::vector<std::size_t>& initial_working = {}) {
    validate(problem);
    const std::size_t n = problem.hessian.rows();
    const std::size_t mi = problem.ineq_matrix.rows();

    Vector x;
    if (start.has_value()) {
        if (start->size() != n) throw std::invalid_argument("solve_qp: start length mismatch");
        if (!is_feasible(problem, *start, options.constraint_tol)) {
            throw std::invalid_argument("solve_qp: provided start is infeasible");
        }
        x = *start;
    } else {
        x = find_feasible_start(problem, options.constraint_tol);
    }

    // Ridge scale for singular-KKT recovery.
    double trace = 0.0;
    for (std::size_t i = 0; i < n; ++i) trace += problem.hessian(i, i);
    const double ridge_unit = options.fallback_ridge * std::max(1.0, trace / static_cast<double>(n));

    std::vector<std::size_t> working;  // active inequality indices
    std::vector<char> in_working(mi, 0);
    for (std::size_t k : initial_working) {
        if (k >= mi) throw std::invalid_argument("solve_qp: initial working index out of range");
        if (in_working[k]) continue;  // duplicate hints are harmless
        in_working[k] = 1;
        working.push_back(k);
    }
    // Anti-cycling state: a constraint dropped at a stationary point that
    // immediately re-blocks with a zero-length step is "pinned" — kept in
    // the working set with its (numerically) negative multiplier tolerated
    // until a real step is taken. This breaks the degenerate drop/re-add
    // loops that dense positivity grids (many nearly dependent rows)
    // otherwise produce.
    std::vector<char> pinned(mi, 0);
    std::size_t last_dropped = mi;

    Qp_result result;
    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        result.iterations = iter + 1;

        Kkt_step step;
        bool solved = false;
        double ridge = 0.0;
        for (int attempt = 0; attempt < 3 && !solved; ++attempt) {
            try {
                step = solve_kkt(problem, x, working, ridge);
                solved = true;
            } catch (const std::runtime_error&) {
                // Singular KKT: first add a ridge, then as a last resort drop
                // the most recently added working constraint (degenerate set).
                if (attempt == 0) {
                    ridge = ridge_unit;
                } else if (!working.empty()) {
                    in_working[working.back()] = 0;
                    working.pop_back();
                    ridge = 0.0;
                }
            }
        }
        if (!solved) throw std::runtime_error("solve_qp: KKT system unsolvable");

        if (norm_inf(step.p) < primal_step_tol) {
            // Stationary on the working set: check dual feasibility. The
            // KKT block solve returns y with Hx + g = -C_W' y, so the
            // Lagrange multipliers of the >= constraints are mu = -y.
            if (working.empty()) {
                result.converged = true;
                break;
            }
            std::size_t drop_pos = working.size();
            double most_negative = -options.multiplier_tol;
            for (std::size_t k = 0; k < working.size(); ++k) {
                if (pinned[working[k]]) continue;
                const double mu = -step.w_multipliers[k];
                if (mu < most_negative) {
                    most_negative = mu;
                    drop_pos = k;
                }
            }
            if (drop_pos == working.size()) {
                result.converged = true;
                break;
            }
            last_dropped = working[drop_pos];
            in_working[last_dropped] = 0;
            working.erase(working.begin() + static_cast<std::ptrdiff_t>(drop_pos));
            continue;
        }

        // Relaxed ratio test: the largest alpha in (0, 1] keeping every
        // inactive inequality within the feasibility tolerance. Allowing a
        // `constraint_tol` violation makes every step strictly positive,
        // which is what prevents cycling at degenerate vertices (e.g. a
        // dense positivity grid whose rows all have zero slack at x = 0
        // and infinitesimally negative directional derivatives).
        double alpha = 1.0;
        std::size_t blocking = mi;  // sentinel: none
        for (std::size_t i = 0; i < mi; ++i) {
            if (in_working[i]) continue;
            const double cp = dot(problem.ineq_matrix.row(i), step.p);
            if (cp >= -1e-14) continue;  // moving away from or along the boundary
            const double slack = dot(problem.ineq_matrix.row(i), x) - problem.ineq_rhs[i];
            const double a = (std::max(slack, 0.0) + options.constraint_tol) / (-cp);
            if (a < alpha) {
                alpha = a;
                blocking = i;
            }
        }

        axpy(alpha, step.p, x);
        if (alpha > 1e-10) {
            // Real progress: degeneracy bookkeeping resets.
            std::fill(pinned.begin(), pinned.end(), char{0});
            last_dropped = mi;
        }
        if (blocking != mi) {
            if (blocking == last_dropped && alpha <= 1e-10) pinned[blocking] = 1;
            working.push_back(blocking);
            in_working[blocking] = 1;
        }
    }

    if (!result.converged) {
        throw std::runtime_error("solve_qp: iteration limit exceeded (possible cycling)");
    }

    result.x = x;
    result.objective = 0.5 * dot(x, problem.hessian * x) + dot(problem.gradient, x);
    result.active_set = working;
    std::sort(result.active_set.begin(), result.active_set.end());
    return result;
}

/// Maximum KKT violation at result.x (stationarity, primal and dual
/// feasibility, complementary slackness on the reported active set).
inline double kkt_violation(const Qp_problem& problem, const Qp_result& result) {
    validate(problem);
    const Vector& x = result.x;
    const std::size_t n = problem.hessian.rows();
    const std::size_t me = problem.eq_matrix.rows();
    const std::size_t mw = result.active_set.size();

    double worst = std::max(eq_violation(problem, x), ineq_violation(problem, x));

    // Stationarity: Hx + g = A' lambda + C_W' mu with mu >= 0. Recover the
    // multipliers by least squares against the active constraint gradients.
    Vector resid = problem.hessian * x + problem.gradient;
    if (me + mw == 0) return std::max(worst, norm_inf(resid));

    Matrix jt(n, me + mw);  // columns are constraint gradients
    for (std::size_t r = 0; r < me; ++r) {
        for (std::size_t j = 0; j < n; ++j) jt(j, r) = problem.eq_matrix(r, j);
    }
    for (std::size_t k = 0; k < mw; ++k) {
        for (std::size_t j = 0; j < n; ++j) {
            jt(j, me + k) = problem.ineq_matrix(result.active_set[k], j);
        }
    }
    const Vector multipliers = qr_least_squares(jt, resid);
    const Vector stat = resid - jt * multipliers;
    worst = std::max(worst, norm_inf(stat));
    for (std::size_t k = 0; k < mw; ++k) {
        worst = std::max(worst, -multipliers[me + k]);  // dual feasibility
    }
    // Complementary slackness on the reported active set.
    for (std::size_t k = 0; k < mw; ++k) {
        const std::size_t i = result.active_set[k];
        const double slack = dot(problem.ineq_matrix.row(i), x) - problem.ineq_rhs[i];
        worst = std::max(worst, std::abs(slack * multipliers[me + k]));
    }
    return worst;
}

/// a.row(r) . v straight off the row-major storage, without the row
/// copy, in dot()'s serial order (so bit-identical to it).
inline double dot_row(const Matrix& a, std::size_t r, const Vector& v) {
    const double* row = a.data().data() + r * a.cols();
    double s = 0.0;
    for (std::size_t k = 0; k < v.size(); ++k) s += row[k] * v[k];
    return s;
}

inline Qp_result allocating_gi_reduced(const Matrix& hessian, const Vector& gradient,
                                       const Matrix& ineq_matrix, const Vector& ineq_rhs,
                                       const Qp_options& options = {}) {
    const std::size_t nz = hessian.rows();
    const std::size_t mi = ineq_matrix.rows();
    if (hessian.cols() != nz || gradient.size() != nz) {
        throw std::invalid_argument("solve_qp_dual_reduced: Hessian/gradient shape mismatch");
    }
    if (ineq_rhs.size() != mi || (mi > 0 && ineq_matrix.cols() != nz)) {
        throw std::invalid_argument("solve_qp_dual_reduced: inequality block shape mismatch");
    }
    const Matrix& cr = ineq_matrix;
    const Vector& dr = ineq_rhs;

    // Scaled ridge guaranteeing strict convexity.
    Matrix hr = hessian;
    {
        double trace = 0.0;
        for (std::size_t i = 0; i < nz; ++i) trace += hr(i, i);
        const double ridge =
            std::max(options.fallback_ridge, 1e-12) * std::max(1.0, trace / static_cast<double>(nz));
        for (std::size_t i = 0; i < nz; ++i) hr(i, i) += ridge;
    }

    // --- Goldfarb-Idnani on the reduced problem. ---
    const Cholesky_factorization hl(hr);  // throws if H is not PD even with ridge
    auto h_solve = [&](const Vector& rhs) { return hl.solve(rhs); };

    Vector y = scaled(h_solve(gradient), -1.0);  // unconstrained optimum
    std::vector<std::size_t> active;
    std::vector<char> is_active(mi, 0);  // membership mask of `active`
    Vector u;  // multipliers of active constraints
    std::size_t iterations = 0;
    const std::size_t max_outer = options.max_iterations + 10 * (mi + 1);

    // H^{-1} c_r, solved at most once per constraint per call: every
    // inner step reuses the columns of the whole active set. Allocated on
    // first use — most solves exit at the unconstrained optimum.
    std::vector<Vector> hinv_rows;
    const auto hinv_row = [&](std::size_t r) -> const Vector& {
        if (hinv_rows.empty()) hinv_rows.resize(mi);
        if (hinv_rows[r].empty()) hinv_rows[r] = h_solve(cr.row(r));
        return hinv_rows[r];
    };

    // C_r y for every row in one dispatched mat-vec per scan; each row
    // sums in dot()'s serial order, so the scan is bit-identical to a
    // per-row dot. The buffer is reused across the outer iterations.
    const simd::Kernel_table& kt = simd::kernels();
    Vector row_values(mi);
    bool scanned_feasible = false;  // the last scan found no violated inactive row
    for (std::size_t outer = 0; outer < max_outer; ++outer) {
        // Most violated inactive constraint.
        double worst = -options.constraint_tol;
        std::size_t j = mi;
        if (mi > 0) kt.matvec(cr.data().data(), mi, nz, y.data(), row_values.data());
        for (std::size_t r = 0; r < mi; ++r) {
            if (is_active[r]) continue;
            const double slack = row_values[r] - dr[r];
            if (slack < worst) {
                worst = slack;
                j = r;
            }
        }
        if (j == mi) {  // primal feasible: done
            scanned_feasible = true;
            break;
        }

        const Vector cj = cr.row(j);
        const Vector& hic = hinv_row(j);
        double uj = 0.0;

        // Inner loop: take (partial) steps toward constraint j's boundary,
        // shedding dual-blocking constraints along the way.
        for (std::size_t inner = 0; inner <= mi + 1; ++inner) {
            ++iterations;

            Vector r_dir;  // dual step for active multipliers
            Vector zdir = hic;
            if (!active.empty()) {
                const std::size_t q = active.size();
                Matrix nact(nz, q);
                for (std::size_t k = 0; k < q; ++k) nact.set_col(k, cr.row(active[k]));
                // M = N' H^{-1} N, rhs = N' H^{-1} c.
                Matrix hin(nz, q);
                for (std::size_t k = 0; k < q; ++k) hin.set_col(k, hinv_row(active[k]));
                Matrix m(q, q);
                for (std::size_t a2 = 0; a2 < q; ++a2) {
                    for (std::size_t b2 = 0; b2 < q; ++b2) {
                        double s = 0.0;
                        for (std::size_t k = 0; k < nz; ++k) s += nact(k, a2) * hin(k, b2);
                        m(a2, b2) = s;
                    }
                }
                const Vector rhs = transposed_times(nact, hic);
                r_dir = ldlt_solve(m, rhs);
                zdir = hic - hin * r_dir;
            }

            const double ztc = dot(zdir, cj);
            // Dual blocking step t1.
            double t1 = std::numeric_limits<double>::infinity();
            std::size_t drop = active.size();
            for (std::size_t k = 0; k < active.size(); ++k) {
                if (!r_dir.empty() && r_dir[k] > options.multiplier_tol) {
                    const double cand = u[k] / r_dir[k];
                    if (cand < t1) {
                        t1 = cand;
                        drop = k;
                    }
                }
            }
            // Full primal step t2.
            const double slack = dot(cj, y) - dr[j];
            const double t2 = ztc > 1e-14 ? -slack / ztc : std::numeric_limits<double>::infinity();
            const double t = std::min(t1, t2);
            if (!std::isfinite(t)) {
                throw std::runtime_error("solve_qp_dual: constraints are infeasible");
            }

            if (std::isfinite(t2) || t == t1) {
                if (std::isfinite(t2) && ztc > 1e-14) axpy(t, zdir, y);
                for (std::size_t k = 0; k < u.size(); ++k) u[k] -= t * (r_dir.empty() ? 0.0 : r_dir[k]);
                uj += t;
            }
            if (t == t2 && std::isfinite(t2)) {
                active.push_back(j);
                is_active[j] = 1;
                u.push_back(uj);
                break;
            }
            // Dual step only: drop the blocking constraint and retry.
            is_active[active[drop]] = 0;
            active.erase(active.begin() + static_cast<std::ptrdiff_t>(drop));
            u.erase(u.begin() + static_cast<std::ptrdiff_t>(drop));
        }
    }

    Qp_result result;
    result.x = std::move(y);
    result.iterations = iterations == 0 ? 1 : iterations;
    result.active_set = std::move(active);
    std::sort(result.active_set.begin(), result.active_set.end());
    // The dual method terminates at primal feasibility; verify it rather
    // than trusting the loop bound. After a clean exit the final scan
    // already held every inactive row within constraint_tol at this y,
    // so only the active rows need the check.
    double violation = 0.0;
    const auto check_row = [&](std::size_t r) {
        violation = std::max(violation, dr[r] - dot_row(cr, r, result.x));
    };
    if (scanned_feasible) {
        for (std::size_t r : result.active_set) check_row(r);
    } else {
        for (std::size_t r = 0; r < mi; ++r) check_row(r);
    }
    if (violation > 100.0 * options.constraint_tol) {
        throw std::runtime_error("solve_qp_dual: failed to reach primal feasibility");
    }
    result.converged = true;
    result.objective = 0.5 * dot(result.x, hessian * result.x) + dot(gradient, result.x);
    return result;
}

}  // namespace cellsync::test
