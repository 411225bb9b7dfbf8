#include "numerics/linear_solve.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace cellsync {

namespace {

struct Lu_factors {
    Matrix lu;                     // packed L (unit diagonal, below) and U (on/above)
    std::vector<std::size_t> piv;  // row permutation
    int sign = 1;                  // permutation sign, for determinants
};

/// Max |a(i, j)| over the n x n block (NaN entries never win std::max).
double block_norm_inf(const double* a, std::size_t n, std::size_t ld) {
    double m = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) m = std::max(m, std::abs(a[i * ld + j]));
    }
    return m;
}

/// LU with partial pivoting of the n x n block at `a`, in place (packed
/// unit-lower L below the diagonal, U on and above); writes the row
/// permutation to piv and returns its sign.
int lu_factor_in_place(double* a, std::size_t n, std::size_t ld, std::size_t* piv) {
    std::iota(piv, piv + n, std::size_t{0});
    int sign = 1;
    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivot: largest magnitude in column k at or below the diagonal.
        std::size_t p = k;
        double best = std::abs(a[k * ld + k]);
        for (std::size_t i = k + 1; i < n; ++i) {
            const double v = std::abs(a[i * ld + k]);
            if (v > best) {
                best = v;
                p = i;
            }
        }
        if (best < 1e-13 * std::max(1.0, block_norm_inf(a, n, ld))) {
            throw std::runtime_error("lu_factor: matrix is singular to working precision");
        }
        if (p != k) {
            for (std::size_t j = 0; j < n; ++j) std::swap(a[k * ld + j], a[p * ld + j]);
            std::swap(piv[k], piv[p]);
            sign = -sign;
        }
        for (std::size_t i = k + 1; i < n; ++i) {
            a[i * ld + k] /= a[k * ld + k];
            const double lik = a[i * ld + k];
            if (lik == 0.0) continue;
            for (std::size_t j = k + 1; j < n; ++j) a[i * ld + j] -= lik * a[k * ld + j];
        }
    }
    return sign;
}

/// Forward (unit-lower L) then back (U) substitution on the already
/// permuted right-hand side x, in place.
void lu_substitute_in_place(const double* lu, std::size_t n, std::size_t ld, double* x) {
    // Forward substitution with unit-lower L.
    for (std::size_t i = 1; i < n; ++i) {
        double s = x[i];
        for (std::size_t j = 0; j < i; ++j) s -= lu[i * ld + j] * x[j];
        x[i] = s;
    }
    // Back substitution with U.
    for (std::size_t ii = n; ii-- > 0;) {
        double s = x[ii];
        for (std::size_t j = ii + 1; j < n; ++j) s -= lu[ii * ld + j] * x[j];
        x[ii] = s / lu[ii * ld + ii];
    }
}

/// b <- L^{-1} b, in place.
void cholesky_forward_in_place(const double* l, std::size_t n, std::size_t ld, double* b) {
    for (std::size_t i = 0; i < n; ++i) {
        double s = b[i];
        for (std::size_t j = 0; j < i; ++j) s -= l[i * ld + j] * b[j];
        b[i] = s / l[i * ld + i];
    }
}

/// y <- L^{-T} y, in place.
void cholesky_backward_in_place(const double* l, std::size_t n, std::size_t ld, double* y) {
    for (std::size_t ii = n; ii-- > 0;) {
        double s = y[ii];
        for (std::size_t j = ii + 1; j < n; ++j) s -= l[j * ld + ii] * y[j];
        y[ii] = s / l[ii * ld + ii];
    }
}

Lu_factors lu_factor(const Matrix& a) {
    if (a.rows() != a.cols()) throw std::invalid_argument("lu_factor: matrix must be square");
    const std::size_t n = a.rows();
    Lu_factors f{a, std::vector<std::size_t>(n), 1};
    if (n > 0) f.sign = lu_factor_in_place(&f.lu(0, 0), n, n, f.piv.data());
    return f;
}

Vector lu_apply(const Lu_factors& f, const Vector& b) {
    const std::size_t n = f.lu.rows();
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = b[f.piv[i]];
    if (n > 0) lu_substitute_in_place(f.lu.data().data(), n, n, x.data());
    return x;
}

}  // namespace

void cholesky_in_place(double* a, std::size_t n, std::size_t ld) {
    for (std::size_t j = 0; j < n; ++j) {
        double d = a[j * ld + j];
        for (std::size_t k = 0; k < j; ++k) d -= a[j * ld + k] * a[j * ld + k];
        if (d <= 0.0 || !std::isfinite(d)) {
            throw std::runtime_error("cholesky: matrix is not positive definite");
        }
        a[j * ld + j] = std::sqrt(d);
        for (std::size_t i = j + 1; i < n; ++i) {
            double s = a[i * ld + j];
            for (std::size_t k = 0; k < j; ++k) s -= a[i * ld + k] * a[j * ld + k];
            a[i * ld + j] = s / a[j * ld + j];
        }
    }
}

void cholesky_solve_in_place(const double* l, std::size_t n, std::size_t ld, double* b) {
    cholesky_forward_in_place(l, n, ld, b);
    cholesky_backward_in_place(l, n, ld, b);
}

void ldlt_factor(const double* a, std::size_t lda, std::size_t n, double* lu,
                 std::size_t* piv, double* scale) {
    // Symmetric indefinite systems (KKT matrices) are solved by LU with
    // partial pivoting after symmetric equilibration. KKT blocks routinely
    // mix scales (Hessian entries ~1e7 from inverse-variance weights next
    // to O(1) constraint rows), and without equilibration the LU pivot
    // threshold — relative to the matrix norm — falsely rejects the small
    // but perfectly regular constraint pivots.
    for (std::size_t i = 0; i < n; ++i) {
        double row_norm = 0.0;
        for (std::size_t j = 0; j < n; ++j) row_norm = std::max(row_norm, std::abs(a[i * lda + j]));
        scale[i] = row_norm > 0.0 ? 1.0 / std::sqrt(row_norm) : 1.0;
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) lu[i * n + j] = a[i * lda + j] * scale[i] * scale[j];
    }
    lu_factor_in_place(lu, n, n, piv);
}

void ldlt_apply(const double* lu, const std::size_t* piv, const double* scale, std::size_t n,
                const double* b, double* x) {
    // A x = b  <=>  (S A S)(S^{-1} x) = S b.
    for (std::size_t i = 0; i < n; ++i) x[i] = b[piv[i]] * scale[piv[i]];
    lu_substitute_in_place(lu, n, n, x);
    for (std::size_t i = 0; i < n; ++i) x[i] *= scale[i];
}

Vector lu_solve(const Matrix& a, const Vector& b) {
    if (a.rows() != b.size()) throw std::invalid_argument("lu_solve: rhs length mismatch");
    return lu_apply(lu_factor(a), b);
}

Matrix lu_solve(const Matrix& a, const Matrix& b) {
    if (a.rows() != b.rows()) throw std::invalid_argument("lu_solve: rhs rows mismatch");
    const Lu_factors f = lu_factor(a);
    Matrix x(a.cols(), b.cols());
    for (std::size_t j = 0; j < b.cols(); ++j) x.set_col(j, lu_apply(f, b.col(j)));
    return x;
}

double determinant(const Matrix& a) {
    if (a.rows() != a.cols()) throw std::invalid_argument("determinant: matrix must be square");
    if (a.rows() == 0) return 1.0;
    Lu_factors f;
    try {
        f = lu_factor(a);
    } catch (const std::runtime_error&) {
        return 0.0;
    }
    double d = static_cast<double>(f.sign);
    for (std::size_t i = 0; i < a.rows(); ++i) d *= f.lu(i, i);
    return d;
}

Matrix inverse(const Matrix& a) { return lu_solve(a, Matrix::identity(a.rows())); }

Matrix cholesky(const Matrix& a) {
    if (a.rows() != a.cols()) throw std::invalid_argument("cholesky: matrix must be square");
    const std::size_t n = a.rows();
    Matrix l(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) l(i, j) = a(i, j);
    }
    if (n > 0) cholesky_in_place(&l(0, 0), n, n);
    return l;
}

Cholesky_factorization::Cholesky_factorization(const Matrix& a) : lower_(cholesky(a)) {}

Vector Cholesky_factorization::forward(const Vector& b) const {
    if (b.size() != lower_.rows()) {
        throw std::invalid_argument("Cholesky_factorization: rhs length mismatch");
    }
    Vector y = b;
    cholesky_forward_in_place(lower_.data().data(), y.size(), y.size(), y.data());
    return y;
}

Vector Cholesky_factorization::backward(const Vector& y) const {
    if (y.size() != lower_.rows()) {
        throw std::invalid_argument("Cholesky_factorization: rhs length mismatch");
    }
    Vector x = y;
    cholesky_backward_in_place(lower_.data().data(), x.size(), x.size(), x.data());
    return x;
}

Vector Cholesky_factorization::solve(const Vector& b) const { return backward(forward(b)); }

Vector cholesky_solve(const Matrix& a, const Vector& b) {
    if (a.rows() != b.size()) throw std::invalid_argument("cholesky_solve: rhs length mismatch");
    return Cholesky_factorization(a).solve(b);
}

Ldlt_factorization::Ldlt_factorization(const Matrix& a) {
    if (a.rows() != a.cols()) {
        throw std::invalid_argument("Ldlt_factorization: matrix must be square");
    }
    const std::size_t n = a.rows();
    lu_ = Matrix(n, n);
    piv_.resize(n);
    scale_.resize(n);
    if (n > 0) ldlt_factor(a.data().data(), n, n, &lu_(0, 0), piv_.data(), scale_.data());
}

Vector Ldlt_factorization::solve(const Vector& b) const {
    if (b.size() != lu_.rows()) {
        throw std::invalid_argument("Ldlt_factorization: rhs length mismatch");
    }
    Vector x(b.size());
    ldlt_apply(lu_.data().data(), piv_.data(), scale_.data(), b.size(), b.data(), x.data());
    return x;
}

Vector ldlt_solve(const Matrix& a, const Vector& b) {
    if (a.rows() != b.size()) throw std::invalid_argument("ldlt_solve: rhs length mismatch");
    return Ldlt_factorization(a).solve(b);
}

Vector qr_least_squares(const Matrix& a, const Vector& b) {
    if (a.rows() != b.size()) throw std::invalid_argument("qr_least_squares: rhs length mismatch");
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    Matrix r = a;
    Vector qtb = b;
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), std::size_t{0});

    // Column norms for pivoting.
    Vector cn(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        double s = 0.0;
        for (std::size_t i = 0; i < m; ++i) s += r(i, j) * r(i, j);
        cn[j] = s;
    }

    const std::size_t kmax = std::min(m, n);
    std::size_t rank = kmax;
    const double tol = 1e-12;
    double first_pivot = 0.0;

    for (std::size_t k = 0; k < kmax; ++k) {
        // Column pivot: move the column with the largest remaining norm to k.
        std::size_t p = k;
        for (std::size_t j = k + 1; j < n; ++j)
            if (cn[j] > cn[p]) p = j;
        if (p != k) {
            for (std::size_t i = 0; i < m; ++i) std::swap(r(i, k), r(i, p));
            std::swap(cn[k], cn[p]);
            std::swap(perm[k], perm[p]);
        }

        // Householder reflection for column k.
        double nrm = 0.0;
        for (std::size_t i = k; i < m; ++i) nrm += r(i, k) * r(i, k);
        nrm = std::sqrt(nrm);
        if (k == 0) first_pivot = nrm;
        if (nrm <= tol * std::max(1.0, first_pivot)) {
            rank = k;
            break;
        }
        if (r(k, k) > 0.0) nrm = -nrm;
        Vector v(m - k);
        for (std::size_t i = k; i < m; ++i) v[i - k] = r(i, k);
        v[0] -= nrm;
        const double vtv = dot(v, v);
        if (vtv > 0.0) {
            // Apply H = I - 2 v v^T / (v^T v) to trailing columns and rhs.
            for (std::size_t j = k; j < n; ++j) {
                double s = 0.0;
                for (std::size_t i = k; i < m; ++i) s += v[i - k] * r(i, j);
                const double f = 2.0 * s / vtv;
                for (std::size_t i = k; i < m; ++i) r(i, j) -= f * v[i - k];
            }
            double s = 0.0;
            for (std::size_t i = k; i < m; ++i) s += v[i - k] * qtb[i];
            const double f = 2.0 * s / vtv;
            for (std::size_t i = k; i < m; ++i) qtb[i] -= f * v[i - k];
        }
        r(k, k) = nrm;
        // Downdate remaining column norms.
        for (std::size_t j = k + 1; j < n; ++j) cn[j] -= r(k, j) * r(k, j);
    }

    // Back-substitute on the leading rank x rank triangle.
    Vector xp(n, 0.0);
    for (std::size_t ii = rank; ii-- > 0;) {
        double s = qtb[ii];
        for (std::size_t j = ii + 1; j < rank; ++j) s -= r(ii, j) * xp[j];
        xp[ii] = s / r(ii, ii);
    }
    Vector x(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) x[perm[j]] = xp[j];
    return x;
}

double condition_number_1(const Matrix& a) {
    if (a.rows() != a.cols() || a.rows() == 0)
        throw std::invalid_argument("condition_number_1: matrix must be square and non-empty");
    auto norm1 = [](const Matrix& m) {
        double best = 0.0;
        for (std::size_t j = 0; j < m.cols(); ++j) {
            double s = 0.0;
            for (std::size_t i = 0; i < m.rows(); ++i) s += std::abs(m(i, j));
            best = std::max(best, s);
        }
        return best;
    };
    try {
        return norm1(a) * norm1(inverse(a));
    } catch (const std::runtime_error&) {
        return std::numeric_limits<double>::infinity();
    }
}

}  // namespace cellsync
