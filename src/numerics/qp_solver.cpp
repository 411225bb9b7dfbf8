#include "numerics/qp_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/telemetry.h"
#include "core/trace.h"
#include "numerics/linear_solve.h"
#include "numerics/simd_dispatch.h"

namespace cellsync {

namespace {

void validate(const Qp_problem& p) {
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

// Orthonormal basis of the null space of `a` (rows x n, rows < n) by
// modified Gram-Schmidt with reorthogonalization: orthonormalize the rows,
// then sweep the standard basis, keeping directions with significant
// residual. Small dense sizes only.
std::vector<Vector> null_space_basis(const Matrix& a) {
    const std::size_t n = a.cols();
    std::vector<Vector> range;  // orthonormalized rows of a
    for (std::size_t r = 0; r < a.rows(); ++r) {
        Vector v = a.row(r);
        for (int pass = 0; pass < 2; ++pass) {
            for (const Vector& q : range) axpy(-dot(q, v), q, v);
        }
        const double nv = norm2(v);
        if (nv > 1e-12 * std::max(1.0, norm_inf(a.row(r)))) {
            range.push_back(scaled(v, 1.0 / nv));
        }
    }
    std::vector<Vector> null_basis;
    for (std::size_t i = 0; i < n && null_basis.size() < n - range.size(); ++i) {
        Vector v(n, 0.0);
        v[i] = 1.0;
        for (int pass = 0; pass < 2; ++pass) {
            for (const Vector& q : range) axpy(-dot(q, v), q, v);
            for (const Vector& q : null_basis) axpy(-dot(q, v), q, v);
        }
        const double nv = norm2(v);
        if (nv > 1e-8) null_basis.push_back(scaled(v, 1.0 / nv));
    }
    return null_basis;
}

/// sum_k a[k] b[k] in increasing k, as dot() sums (so bit-identical to
/// it), straight off raw storage.
double dot_n(const double* a, const double* b, std::size_t n) {
    double s = 0.0;
    for (std::size_t k = 0; k < n; ++k) s += a[k] * b[k];
    return s;
}

}  // namespace

Qp_constraint_prep::Qp_constraint_prep(std::size_t n, const Matrix& eq_matrix,
                                       const Vector& eq_rhs, const Matrix& ineq_matrix,
                                       const Vector& ineq_rhs)
    : n_(n) {
    const std::size_t me = eq_matrix.rows();
    const std::size_t mi = ineq_matrix.rows();
    if (me != eq_rhs.size() || (me > 0 && eq_matrix.cols() != n)) {
        throw std::invalid_argument("Qp_constraint_prep: equality block shape mismatch");
    }
    if (mi != ineq_rhs.size() || (mi > 0 && ineq_matrix.cols() != n)) {
        throw std::invalid_argument("Qp_constraint_prep: inequality block shape mismatch");
    }

    // Null-space reduction of the equality constraints: x = x0 + Z y.
    x_particular_.assign(n, 0.0);
    if (me > 0) {
        x_particular_ = qr_least_squares(eq_matrix, eq_rhs);
        if (norm_inf(eq_matrix * x_particular_ - eq_rhs) >
            1e-8 * std::max(1.0, norm_inf(eq_rhs))) {
            throw std::runtime_error("Qp_constraint_prep: equality constraints are inconsistent");
        }
        const std::vector<Vector> basis = null_space_basis(eq_matrix);
        z_basis_ = Matrix(n, basis.size());
        for (std::size_t c = 0; c < basis.size(); ++c) z_basis_.set_col(c, basis[c]);
    } else {
        z_basis_ = Matrix::identity(n);
    }

    // Reduced inequality block: Cr = C Z, dr = d - C x0.
    const std::size_t nz = z_basis_.cols();
    reduced_ineq_ = Matrix(mi, nz);
    reduced_rhs_.assign(mi, 0.0);
    for (std::size_t r = 0; r < mi; ++r) {
        const Vector row = ineq_matrix.row(r);
        reduced_ineq_.set_row(r, transposed_times(z_basis_, row));
        reduced_rhs_[r] = ineq_rhs[r] - dot(row, x_particular_);
    }
    reduced_ineq_t_ = reduced_ineq_.transposed();
}

namespace {

/// Per-thread scratch of solve_qp_dual_reduced. Buffers only grow, so a
/// solve whose shape fits what its thread has already solved allocates
/// nothing but its result. Nothing here outlives one call's meaning:
/// every entry a solve reads, it first writes.
struct Gi_workspace {
    std::vector<double> factor;      ///< nz x nz: H + ridge I, then its Cholesky L (lower)
    std::vector<double> hinv;        ///< mi x nz: row r is H^{-1} c_r once hinv_ready[r]
    std::vector<char> hinv_ready;    ///< mi
    std::vector<double> gram;        ///< M = N'H^{-1}N over the active set, row stride mi
    std::vector<double> lu;          ///< q x q equilibrated LU of M
    std::vector<std::size_t> piv;    ///< q: LU row permutation
    std::vector<double> scale;       ///< q: LU equilibration
    std::vector<double> rhs;         ///< q: N'H^{-1}c_j of the constraint being added
    std::vector<double> r_dir;       ///< q: dual step M^{-1} rhs
    std::vector<double> u;           ///< q: multipliers of the active constraints
    std::vector<std::size_t> active; ///< q: active rows, in the order they entered
    std::vector<char> is_active;     ///< mi: membership mask of `active`
    std::vector<double> zdir;        ///< nz: primal step direction (also H y at exit)
    std::vector<double> row_values;  ///< mi: C_r y of the scan
};

Gi_workspace& gi_workspace() {
    thread_local Gi_workspace workspace;
    return workspace;
}

/// v's storage with at least n entries; grows (allocates) only past the
/// largest n this thread has asked for.
template <class T>
T* sized(std::vector<T>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
    return v.data();
}

}  // namespace

Qp_result solve_qp_dual_reduced(const Matrix& hessian, const Vector& gradient,
                                const Qp_constraint_prep& prep, const Qp_options& options) {
    const std::size_t nz = hessian.rows();
    if (hessian.cols() != nz || gradient.size() != nz) {
        throw std::invalid_argument("solve_qp_dual_reduced: Hessian/gradient shape mismatch");
    }
    if (nz != prep.reduced_dim()) {
        throw std::invalid_argument(
            "solve_qp_dual_reduced: Hessian size differs from the prep's reduced dimension");
    }
    const Matrix& cr = prep.reduced_inequality();
    const Vector& dr = prep.reduced_ineq_rhs();
    const std::size_t mi = cr.rows();
    const double* crd = cr.data().data();

    // The Goldfarb-Idnani core is the per-gene hot path; the span is one
    // atomic load when tracing is off, and the counters/histogram are
    // recorded at the single successful exit below.
    const telemetry::Trace_span solve_span("qp.active_set.solve", "qp");
    static telemetry::Counter& cold_solves = telemetry::counter("qp.active_set.solves");
    static telemetry::Histogram& iteration_histogram =
        telemetry::histogram("qp.active_set.iterations");

    Gi_workspace& ws = gi_workspace();

    // Scaled ridge guaranteeing strict convexity, then L L' = H + ridge I
    // in place (throws if H is not PD even with the ridge).
    double* l = sized(ws.factor, nz * nz);
    std::copy(hessian.data().begin(), hessian.data().end(), l);
    {
        double trace = 0.0;
        for (std::size_t i = 0; i < nz; ++i) trace += l[i * nz + i];
        const double ridge =
            std::max(options.fallback_ridge, 1e-12) * std::max(1.0, trace / static_cast<double>(nz));
        for (std::size_t i = 0; i < nz; ++i) l[i * nz + i] += ridge;
    }
    cholesky_in_place(l, nz, nz);

    // --- Goldfarb-Idnani on the reduced problem. ---
    Vector y = gradient;  // becomes the unconstrained optimum -H^{-1} g
    cholesky_solve_in_place(l, nz, nz, y.data());
    for (double& v : y) v *= -1.0;

    std::size_t* active = sized(ws.active, mi);
    double* u = sized(ws.u, mi);  // multipliers of active constraints
    std::size_t q = 0;            // active-set size
    char* is_active = sized(ws.is_active, mi);
    std::fill_n(is_active, mi, char{0});
    std::size_t iterations = 0;
    const std::size_t max_outer = options.max_iterations + 10 * (mi + 1);

    // H^{-1} c_r, solved at most once per constraint per call: every
    // inner step reuses the rows of the whole active set. Reset on first
    // use — most solves exit at the unconstrained optimum.
    double* hinv = nullptr;
    char* hinv_ready = nullptr;
    const auto hinv_row = [&](std::size_t r) -> const double* {
        if (hinv == nullptr) {
            hinv = sized(ws.hinv, mi * nz);
            hinv_ready = sized(ws.hinv_ready, mi);
            std::fill_n(hinv_ready, mi, char{0});
        }
        double* h = hinv + r * nz;
        if (!hinv_ready[r]) {
            std::copy_n(crd + r * nz, nz, h);
            cholesky_solve_in_place(l, nz, nz, h);
            hinv_ready[r] = 1;
        }
        return h;
    };

    // M = N'H^{-1}N over the active set (N's columns are the active rows
    // of C_r, in `active` order), kept across inner steps: a constraint
    // entering adds one row and column, a drop removes one. Every entry is
    // the same k-ordered dot product a rebuild would compute.
    double* m = sized(ws.gram, mi * mi);
    double* lu = sized(ws.lu, mi * mi);
    std::size_t* piv = sized(ws.piv, mi);
    double* scale = sized(ws.scale, mi);
    double* rhs = sized(ws.rhs, mi);
    double* r_dir = sized(ws.r_dir, mi);
    double* zdir = sized(ws.zdir, nz);

    // C_r y for every row in one dispatched pass over the transposed block
    // (CZ)': the kernel vectorizes across rows while each row still sums
    // its nz terms in increasing k from 0, exactly as a per-row dot, so the
    // scan is bit-identical to one at every tier.
    const simd::Kernel_table& kt = simd::kernels();
    const double* crt = prep.reduced_inequality_transposed().data().data();
    double* row_values = sized(ws.row_values, mi);
    bool scanned_feasible = false;  // the last scan found no violated inactive row
    for (std::size_t outer = 0; outer < max_outer; ++outer) {
        // Most violated inactive constraint.
        double worst = -options.constraint_tol;
        std::size_t j = mi;
        if (mi > 0) {
            std::fill_n(row_values, mi, 0.0);
            kt.transposed_times(crt, nz, mi, y.data(), row_values);
        }
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

        const double* cj = crd + j * nz;
        const double* hic = hinv_row(j);
        double uj = 0.0;
        // rhs = N'H^{-1}c_j; a drop removes its entry, and it is M's new
        // column once j enters.
        for (std::size_t a = 0; a < q; ++a) {
            rhs[a] = dot_n(crd + active[a] * nz, hic, nz);
        }

        // Inner loop: take (partial) steps toward constraint j's boundary,
        // shedding dual-blocking constraints along the way.
        for (std::size_t inner = 0; inner <= mi + 1; ++inner) {
            ++iterations;

            // Dual step r_dir = M^{-1} rhs for the active multipliers and
            // primal direction zdir = H^{-1}c_j - H^{-1}N r_dir.
            const double* zd = hic;
            if (q > 0) {
                ldlt_factor(m, mi, q, lu, piv, scale);
                ldlt_apply(lu, piv, scale, q, rhs, r_dir);
                std::fill_n(zdir, nz, 0.0);
                for (std::size_t b = 0; b < q; ++b) {
                    const double* hb = hinv_row(active[b]);
                    for (std::size_t k = 0; k < nz; ++k) zdir[k] += hb[k] * r_dir[b];
                }
                for (std::size_t k = 0; k < nz; ++k) zdir[k] = hic[k] - zdir[k];
                zd = zdir;
            }

            const double ztc = dot_n(zd, cj, nz);
            // Dual blocking step t1.
            double t1 = std::numeric_limits<double>::infinity();
            std::size_t drop = q;
            for (std::size_t k = 0; k < q; ++k) {
                if (r_dir[k] > options.multiplier_tol) {
                    const double cand = u[k] / r_dir[k];
                    if (cand < t1) {
                        t1 = cand;
                        drop = k;
                    }
                }
            }
            // Full primal step t2.
            const double slack = dot_n(cj, y.data(), nz) - dr[j];
            const double t2 = ztc > 1e-14 ? -slack / ztc : std::numeric_limits<double>::infinity();
            const double t = std::min(t1, t2);
            if (!std::isfinite(t)) {
                throw std::runtime_error("solve_qp_dual: constraints are infeasible");
            }

            if (std::isfinite(t2) || t == t1) {
                if (std::isfinite(t2) && ztc > 1e-14) {
                    for (std::size_t k = 0; k < nz; ++k) y[k] += t * zd[k];
                }
                for (std::size_t k = 0; k < q; ++k) u[k] -= t * r_dir[k];
                uj += t;
            }
            if (t == t2 && std::isfinite(t2)) {
                // j enters: M gains row and column q.
                for (std::size_t b = 0; b < q; ++b) {
                    m[q * mi + b] = dot_n(cj, hinv_row(active[b]), nz);
                    m[b * mi + q] = rhs[b];
                }
                m[q * mi + q] = dot_n(cj, hic, nz);
                active[q] = j;
                is_active[j] = 1;
                u[q] = uj;
                ++q;
                break;
            }
            // Dual step only: drop the blocking constraint and retry.
            for (std::size_t a = 0; a + 1 < q; ++a) {
                const std::size_t from_a = a < drop ? a : a + 1;
                for (std::size_t b = 0; b + 1 < q; ++b) {
                    m[a * mi + b] = m[from_a * mi + (b < drop ? b : b + 1)];
                }
            }
            is_active[active[drop]] = 0;
            for (double* v : {rhs, u}) std::copy(v + drop + 1, v + q, v + drop);
            std::copy(active + drop + 1, active + q, active + drop);
            --q;
        }
    }

    Qp_result result;
    result.x = std::move(y);
    result.iterations = iterations == 0 ? 1 : iterations;
    result.active_set.assign(active, active + q);
    std::sort(result.active_set.begin(), result.active_set.end());
    // The dual method terminates at primal feasibility; verify it rather
    // than trusting the loop bound. After a clean exit the final scan
    // already held every inactive row within constraint_tol at this y,
    // so only the active rows need the check.
    double violation = 0.0;
    const auto check_row = [&](std::size_t r) {
        violation = std::max(violation, dr[r] - dot_n(crd + r * nz, result.x.data(), nz));
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
    if (nz > 0) kt.matvec(hessian.data().data(), nz, nz, result.x.data(), zdir);
    result.objective =
        0.5 * dot_n(result.x.data(), zdir, nz) + dot(gradient, result.x);
    cold_solves.add();
    iteration_histogram.record(static_cast<double>(result.iterations));
    return result;
}

namespace {

void check_prepared_shapes(const char* who, const Matrix& hessian, const Vector& gradient,
                           const Qp_constraint_prep& prep) {
    const std::size_t n = prep.unknowns();
    if (hessian.rows() != n || hessian.cols() != n || gradient.size() != n) {
        throw std::invalid_argument(std::string(who) + ": Hessian/gradient shape mismatch");
    }
}

/// The point pinned by the equality constraints alone (empty null space).
Qp_result fully_determined_result(const Matrix& hessian, const Vector& gradient,
                                  const Qp_constraint_prep& prep) {
    Qp_result only;
    only.x = prep.x_particular();
    only.objective = 0.5 * dot(only.x, hessian * only.x) + dot(gradient, only.x);
    only.converged = true;
    only.iterations = 1;
    return only;
}

/// Reduced objective blocks: Hr = Z'HZ, gr = Z'(H x0 + g).
struct Reduced_objective {
    Matrix hr;
    Vector gr;
};

Reduced_objective reduce_objective(const Matrix& hessian, const Vector& gradient,
                                   const Qp_constraint_prep& prep) {
    const Matrix& z_basis = prep.z_basis();
    const std::size_t n = prep.unknowns();
    const std::size_t nz = z_basis.cols();
    Reduced_objective out;
    out.hr = Matrix(nz, nz);
    const Matrix hz = hessian * z_basis;
    // i/k/j order keeps the inner loop on contiguous rows of hz and
    // hr; each hr(i, j) still sums its k terms in increasing order.
    for (std::size_t i = 0; i < nz; ++i) {
        for (std::size_t k = 0; k < n; ++k) {
            const double zki = z_basis(k, i);
            for (std::size_t j = 0; j < nz; ++j) out.hr(i, j) += zki * hz(k, j);
        }
    }
    out.gr = transposed_times(z_basis, hessian * prep.x_particular() + gradient);
    return out;
}

}  // namespace

Qp_result solve_qp_dual_prepared(const Matrix& hessian, const Vector& gradient,
                                 const Qp_constraint_prep& prep, const Qp_options& options) {
    check_prepared_shapes("solve_qp_dual_prepared", hessian, gradient, prep);
    if (prep.fully_determined()) return fully_determined_result(hessian, gradient, prep);

    // Reduced problem: min 0.5 y'Hr y + gr'y  s.t.  Cr y >= dr.
    const Reduced_objective reduced_obj = reduce_objective(hessian, gradient, prep);
    Qp_result reduced = solve_qp_dual_reduced(reduced_obj.hr, reduced_obj.gr, prep, options);
    Qp_result result;
    result.x = prep.z_basis() * reduced.x + prep.x_particular();
    result.objective = 0.5 * dot(result.x, hessian * result.x) + dot(gradient, result.x);
    result.iterations = reduced.iterations;
    result.active_set = std::move(reduced.active_set);
    result.converged = reduced.converged;
    return result;
}

Qp_result solve_qp_dual(const Qp_problem& problem, const Qp_options& options) {
    validate(problem);
    const Qp_constraint_prep prep(problem.hessian.rows(), problem.eq_matrix, problem.eq_rhs,
                                  problem.ineq_matrix, problem.ineq_rhs);
    return solve_qp_dual_prepared(problem.hessian, problem.gradient, prep, options);
}

}  // namespace cellsync
