// Dense convex quadratic programming by the primal active-set method.
//
// The deconvolution estimator (paper Eq 5 plus the positivity,
// RNA-conservation, and transcription-rate-continuity constraints) is the
// quadratic program
//
//     minimize    0.5 x' H x + g' x
//     subject to  A_eq x  = b_eq
//                 C_in x >= d_in
//
// with H symmetric positive (semi-)definite. Problem sizes are tiny
// (tens of unknowns, tens of constraints), so a textbook dense active-set
// iteration with explicit KKT solves is both simple and fast.
#pragma once

#include <optional>

#include "numerics/matrix.h"
#include "numerics/vector_ops.h"

namespace cellsync {

/// Specification of a convex QP. Empty equality/inequality blocks are
/// allowed (pass 0-row matrices and empty vectors).
struct Qp_problem {
    Matrix hessian;       ///< H, n x n, symmetric PSD
    Vector gradient;      ///< g, length n
    Matrix eq_matrix;     ///< A_eq, m_e x n (may be 0 x n)
    Vector eq_rhs;        ///< b_eq, length m_e
    Matrix ineq_matrix;   ///< C_in, m_i x n (may be 0 x n)
    Vector ineq_rhs;      ///< d_in, length m_i
};

/// Result of a QP solve.
struct Qp_result {
    Vector x;                       ///< optimizer
    double objective = 0.0;         ///< 0.5 x'Hx + g'x at the optimizer
    std::size_t iterations = 0;     ///< active-set iterations used
    std::vector<std::size_t> active_set;  ///< indices of binding inequalities
    bool converged = false;
};

/// Options controlling the active-set iteration.
struct Qp_options {
    std::size_t max_iterations = 1000;
    /// Feasibility tolerance. Also the per-step violation allowance of the
    /// relaxed ratio test (iterates may sit up to ~this far outside an
    /// inequality; tighten it if exact feasibility matters more than
    /// robustness at degenerate vertices).
    double constraint_tol = 1e-9;
    double multiplier_tol = 1e-9;   ///< dual feasibility tolerance
    double step_tol = 1e-12;        ///< ||p|| below which a step is "zero"
    /// Ridge added to H on a singular KKT solve (scaled by trace(H)/n);
    /// keeps degenerate problems solvable without caller involvement.
    double fallback_ridge = 1e-10;
};

/// Solve the QP by the primal active-set method.
///
/// `start` must be feasible if provided. If omitted, the solver tries, in
/// order: the zero vector; the minimum-norm solution of the equality
/// system. `initial_working` warm-starts the working set (inequality row
/// indices, typically the active set of a nearby problem's solution
/// whose x is passed as `start`); rows that do not belong are shed by
/// the normal multiplier test, so a stale hint costs iterations, not
/// correctness. Throws std::invalid_argument for malformed shapes or
/// out-of-range working indices and std::runtime_error if no feasible
/// start can be constructed or the iteration limit is exceeded.
Qp_result solve_qp(const Qp_problem& problem, const Qp_options& options = {},
                   const std::optional<Vector>& start = std::nullopt,
                   const std::vector<std::size_t>& initial_working = {});

/// Precomputed constraint geometry of a QP family.
///
/// Deconvolution solves thousands of QPs that share one constraint set
/// (A_eq, b_eq, C_in, d_in) while the Hessian and gradient vary — across
/// genes, CV folds, bootstrap replicates, and lambda grid points. The
/// equality null-space reduction (particular solution + orthonormal basis
/// Z of null(A_eq)) and the reduction C Z of every inequality row depend
/// only on the constraints, so this object computes them exactly once and
/// is shared immutably across all those solves (and across threads).
class Qp_constraint_prep {
  public:
    /// `n` is the unknown count (blocks may have zero rows). Throws
    /// std::invalid_argument on shape mismatch and std::runtime_error if
    /// the equality system is inconsistent.
    Qp_constraint_prep(std::size_t n, const Matrix& eq_matrix, const Vector& eq_rhs,
                       const Matrix& ineq_matrix, const Vector& ineq_rhs);

    std::size_t unknowns() const { return n_; }
    std::size_t reduced_dim() const { return z_basis_.cols(); }
    /// True when the equalities pin x completely (empty null space).
    bool fully_determined() const { return z_basis_.cols() == 0; }

    const Matrix& z_basis() const { return z_basis_; }              ///< n x nz
    const Vector& x_particular() const { return x_particular_; }    ///< length n
    const Matrix& reduced_inequality() const { return reduced_ineq_; }  ///< C Z
    const Vector& reduced_ineq_rhs() const { return reduced_rhs_; }     ///< d - C x0

  private:
    std::size_t n_ = 0;
    Matrix z_basis_;
    Vector x_particular_;
    Matrix reduced_ineq_;
    Vector reduced_rhs_;
};

/// Goldfarb-Idnani dual iteration on a reduced, inequality-only QP:
/// min 0.5 y'H y + g'y  s.t.  C y >= d, with H made strictly convex by a
/// scaled internal ridge. This is the core shared by solve_qp_dual and the
/// prepared solve path. Throws std::runtime_error on infeasibility or a
/// non-PD Hessian.
Qp_result solve_qp_dual_reduced(const Matrix& hessian, const Vector& gradient,
                                const Matrix& ineq_matrix, const Vector& ineq_rhs,
                                const Qp_options& options = {});

/// Goldfarb-Idnani solve of the full QP reusing a shared constraint
/// preparation; numerically identical to solve_qp_dual on the same
/// problem, minus the per-solve constraint reduction work.
Qp_result solve_qp_dual_prepared(const Matrix& hessian, const Vector& gradient,
                                 const Qp_constraint_prep& prep,
                                 const Qp_options& options = {});

/// Solve the QP by the Goldfarb-Idnani dual active-set method.
///
/// Requires a strictly convex Hessian (positive definite after the
/// solver's internal ridge). Equality constraints are eliminated through a
/// null-space reduction, then inequalities are added one violated
/// constraint at a time starting from the unconstrained optimum. This
/// method needs no feasible starting point, terminates finitely, and is
/// far more robust than the primal iteration on degenerate constraint
/// sets (e.g. dense positivity grids) — it is what the deconvolution
/// estimator uses. Throws std::invalid_argument on malformed shapes and
/// std::runtime_error on infeasible constraints or a singular Hessian.
Qp_result solve_qp_dual(const Qp_problem& problem, const Qp_options& options = {});

/// Verify the KKT conditions at x for the given problem; returns the
/// maximum violation (stationarity, primal and dual feasibility,
/// complementary slackness). Used by tests and diagnostics.
double kkt_violation(const Qp_problem& problem, const Qp_result& result);

}  // namespace cellsync
