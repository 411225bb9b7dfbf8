// Dense convex quadratic programming by the Goldfarb-Idnani dual
// active-set method.
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
// (tens of unknowns, tens of constraints), so the equalities are
// eliminated by a dense null-space reduction and the reduced
// inequality-only problem is solved by a dense dual iteration.
#pragma once

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
    /// Bounds the dual iteration's outer steps (plus ten per inequality).
    std::size_t max_iterations = 1000;
    /// Feasibility tolerance: a row counts as violated below -constraint_tol,
    /// and the final point may violate no row by more than 100x it.
    double constraint_tol = 1e-9;
    double multiplier_tol = 1e-9;   ///< dual step entries at or below this never block
    /// Ridge added to the reduced Hessian (scaled by max(1, trace(H)/n),
    /// floored at 1e-12) so it is strictly convex.
    double fallback_ridge = 1e-10;
};

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
    /// (C Z)', nz x m_i: the layout the dual solver's most-violated-row
    /// scan reads, built here once so it can never disagree with C Z.
    const Matrix& reduced_inequality_transposed() const { return reduced_ineq_t_; }

  private:
    std::size_t n_ = 0;
    Matrix z_basis_;
    Vector x_particular_;
    Matrix reduced_ineq_;
    Vector reduced_rhs_;
    Matrix reduced_ineq_t_;
};

/// Goldfarb-Idnani dual iteration on the reduced, inequality-only QP of
/// `prep`: min 0.5 y'H y + g'y  s.t.  (C Z) y >= d - C x0, with H (nz x nz,
/// nz = prep.reduced_dim()) made strictly convex by a scaled internal
/// ridge. This is the core shared by solve_qp_dual, the prepared solve
/// path, cross-validation's fold fits and the stream's mid-series solves.
///
/// A per-thread workspace, private to this core, holds the ridged
/// Hessian's Cholesky factor, the H^{-1} c_r rows, M = N'H^{-1}N over the
/// active set and M's LU scratch, so a solve whose shape its thread has
/// seen before allocates nothing but its result. M gains or loses one row
/// and column as a constraint enters or is dropped instead of being
/// rebuilt every inner step, and the most-violated-row scan reads
/// prep.reduced_inequality_transposed() through the dispatched
/// transposed_times kernel. Both keep every sum in the order a rebuild
/// and a per-row dot use, so results are bit-identical to the allocating
/// formulation at every dispatch tier. Throws std::invalid_argument on a
/// shape mismatch and std::runtime_error on infeasibility, a non-PD
/// Hessian or a singular active-set system.
Qp_result solve_qp_dual_reduced(const Matrix& hessian, const Vector& gradient,
                                const Qp_constraint_prep& prep,
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

}  // namespace cellsync
