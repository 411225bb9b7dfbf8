// Dense linear solvers: LU with partial pivoting, Cholesky (LLT), LDLT for
// symmetric indefinite KKT systems, Householder QR least squares.
//
// All factorizations are written for the small dense systems that arise in
// the deconvolution pipeline (KKT systems of a few dozen unknowns). Each
// solver validates its input and throws `std::invalid_argument` for shape
// errors and `std::runtime_error` for numerically singular systems.
#pragma once

#include "numerics/matrix.h"
#include "numerics/vector_ops.h"

namespace cellsync {

/// Solve A x = b by LU factorization with partial pivoting.
/// A must be square with A.rows() == b.size(). Throws std::runtime_error if
/// A is singular to working precision.
Vector lu_solve(const Matrix& a, const Vector& b);

/// Solve A X = B column-by-column (B as matrix). Same contracts as lu_solve.
Matrix lu_solve(const Matrix& a, const Matrix& b);

/// Determinant via LU (sign-tracked product of pivots). Square input only.
double determinant(const Matrix& a);

/// Inverse via LU; prefer the solve forms when possible. Throws on singular.
Matrix inverse(const Matrix& a);

/// Cholesky factorization A = L L^T of a symmetric positive-definite matrix.
/// Returns lower-triangular L. Throws std::runtime_error if A is not
/// positive definite (non-positive pivot encountered).
Matrix cholesky(const Matrix& a);

/// Reusable Cholesky factorization A = L L^T: factor once, solve many
/// right-hand sides. The factor-once/solve-many split is what the QP
/// backends and the KKT cache build on. Throws std::runtime_error if A is
/// not positive definite.
class Cholesky_factorization {
  public:
    explicit Cholesky_factorization(const Matrix& a);

    std::size_t size() const { return lower_.rows(); }
    const Matrix& lower() const { return lower_; }

    /// Solve A x = b.
    Vector solve(const Vector& b) const;

    /// Solve L y = b (forward substitution half).
    Vector forward(const Vector& b) const;

    /// Solve L^T x = y (back substitution half).
    Vector backward(const Vector& y) const;

  private:
    Matrix lower_;
};

/// Reusable factorization for symmetric (possibly indefinite) systems —
/// equilibrated LU with partial pivoting under the hood (see ldlt_solve for
/// why equilibration matters on mixed-scale KKT blocks). Factor once, solve
/// many right-hand sides. Throws std::runtime_error on singular input.
class Ldlt_factorization {
  public:
    explicit Ldlt_factorization(const Matrix& a);

    std::size_t size() const { return lu_.rows(); }

    /// Solve A x = b.
    Vector solve(const Vector& b) const;

  private:
    Matrix lu_;                      // packed L (unit lower) and U
    std::vector<std::size_t> piv_;   // row permutation
    Vector scale_;                   // symmetric equilibration diag
};

/// Solve A x = b for symmetric positive-definite A using Cholesky.
Vector cholesky_solve(const Matrix& a, const Vector& b);

/// Solve A x = b for symmetric (possibly indefinite) A using Bunch-Kaufman
/// style LDLT with symmetric diagonal pivoting. Intended for KKT systems.
/// Throws std::runtime_error on singular input.
Vector ldlt_solve(const Matrix& a, const Vector& b);

/// Minimum-norm least-squares solution of min ||A x - b||_2 via Householder
/// QR with column pivoting. Works for any rows >= 1; rank-deficient columns
/// get zero coefficients. Throws on dimension mismatch.
Vector qr_least_squares(const Matrix& a, const Vector& b);

/// Estimated 1-norm condition number via explicit inverse (small dense
/// matrices only). Returns +inf for singular input instead of throwing.
double condition_number_1(const Matrix& a);

// ---------------------------------------------------------------------------
// Buffer forms. The Matrix-returning factorizations above run through
// these, so each factorization's arithmetic exists once; a caller that
// keeps its own storage across solves (the QP core's per-thread
// workspace) calls them directly and allocates nothing. Matrices are
// row-major with leading dimension `ld` (row stride, in doubles); no
// shape is checked.
// ---------------------------------------------------------------------------

/// Cholesky of the n x n block at `a`, in place: reads the lower triangle
/// and overwrites it with L (the strict upper triangle is not touched).
/// Throws std::runtime_error if the block is not positive definite.
void cholesky_in_place(double* a, std::size_t n, std::size_t ld);

/// b <- (L L^T)^{-1} b for the factor of cholesky_in_place.
void cholesky_solve_in_place(const double* l, std::size_t n, std::size_t ld, double* b);

/// Ldlt_factorization's equilibrated LU of the n x n block at `a`
/// (leading dimension lda): writes the symmetric scaling to scale[0, n),
/// the packed factors to the compact n x n `lu` and the permutation to
/// piv[0, n). Throws std::runtime_error if the block is singular to
/// working precision.
void ldlt_factor(const double* a, std::size_t lda, std::size_t n, double* lu,
                 std::size_t* piv, double* scale);

/// Solve with the factors of ldlt_factor: x = A^{-1} b (b and x distinct).
void ldlt_apply(const double* lu, const std::size_t* piv, const double* scale, std::size_t n,
                const double* b, double* x);

}  // namespace cellsync
