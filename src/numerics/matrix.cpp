#include "numerics/matrix.h"

#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "numerics/simd.h"
#include "numerics/simd_dispatch.h"

namespace cellsync {

namespace {

void require_shape(bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("Matrix: ") + what);
}

void mirror_upper(Matrix& g) {
    for (std::size_t i = 1; i < g.rows(); ++i) {
        for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
    }
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
        if (r.size() != cols_) throw std::invalid_argument("Matrix: ragged initializer list");
        data_.insert(data_.end(), r.begin(), r.end());
    }
}

double& Matrix::at(std::size_t i, std::size_t j) {
    if (i >= rows_ || j >= cols_) throw std::out_of_range("Matrix::at: index out of range");
    return data_[i * cols_ + j];
}

double Matrix::at(std::size_t i, std::size_t j) const {
    if (i >= rows_ || j >= cols_) throw std::out_of_range("Matrix::at: index out of range");
    return data_[i * cols_ + j];
}

Vector Matrix::row(std::size_t i) const {
    if (i >= rows_) throw std::out_of_range("Matrix::row: index out of range");
    return Vector(data_.begin() + static_cast<std::ptrdiff_t>(i * cols_),
                  data_.begin() + static_cast<std::ptrdiff_t>((i + 1) * cols_));
}

Vector Matrix::col(std::size_t j) const {
    if (j >= cols_) throw std::out_of_range("Matrix::col: index out of range");
    Vector v(rows_);
    for (std::size_t i = 0; i < rows_; ++i) v[i] = (*this)(i, j);
    return v;
}

void Matrix::set_row(std::size_t i, const Vector& v) {
    if (i >= rows_) throw std::out_of_range("Matrix::set_row: index out of range");
    require_shape(v.size() == cols_, "set_row: length mismatch");
    for (std::size_t j = 0; j < cols_; ++j) (*this)(i, j) = v[j];
}

void Matrix::set_col(std::size_t j, const Vector& v) {
    if (j >= cols_) throw std::out_of_range("Matrix::set_col: index out of range");
    require_shape(v.size() == rows_, "set_col: length mismatch");
    for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) = v[i];
}

Matrix Matrix::transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
    return t;
}

Matrix Matrix::identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

Matrix Matrix::diagonal(const Vector& d) {
    Matrix m(d.size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
    return m;
}

Matrix Matrix::from_rows(const std::vector<Vector>& rows) {
    if (rows.empty()) return Matrix();
    Matrix m(rows.size(), rows.front().size());
    for (std::size_t i = 0; i < rows.size(); ++i) m.set_row(i, rows[i]);
    return m;
}

bool Matrix::all_finite() const {
    for (double v : data_) {
        if (!std::isfinite(v)) return false;
    }
    return true;
}

double Matrix::norm_inf() const {
    double m = 0.0;
    for (double v : data_) m = std::max(m, std::abs(v));
    return m;
}

std::string Matrix::to_string(int precision) const {
    std::ostringstream os;
    os << std::setprecision(precision);
    for (std::size_t i = 0; i < rows_; ++i) {
        os << (i == 0 ? "[" : " ");
        for (std::size_t j = 0; j < cols_; ++j) os << (j ? " " : "") << (*this)(i, j);
        os << (i + 1 == rows_ ? "]" : "\n");
    }
    return os.str();
}

Matrix operator+(const Matrix& a, const Matrix& b) {
    require_shape(a.rows() == b.rows() && a.cols() == b.cols(), "operator+: shape mismatch");
    Matrix r(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j) r(i, j) = a(i, j) + b(i, j);
    return r;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
    require_shape(a.rows() == b.rows() && a.cols() == b.cols(), "operator-: shape mismatch");
    Matrix r(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j) r(i, j) = a(i, j) - b(i, j);
    return r;
}

Matrix operator*(double alpha, const Matrix& a) {
    Matrix r(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j) r(i, j) = alpha * a(i, j);
    return r;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
    require_shape(a.cols() == b.rows(), "operator*: inner dimension mismatch");
    // k-outer / j-inner: every r(i, j) accumulates over k in increasing
    // order and the inner loop runs over independent outputs, so it
    // vectorizes without changing any element's accumulation order. No
    // value-based zero skip (see the non-finite policy in matrix.h).
    Matrix r(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const double aik = a(i, k);
            for (std::size_t j = 0; j < b.cols(); ++j) r(i, j) += aik * b(k, j);
        }
    }
    return r;
}

Vector matvec_reference(const Matrix& a, const Vector& x) {
    require_shape(a.cols() == x.size(), "operator*: matrix-vector dimension mismatch");
    Vector y(a.rows(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        double s = 0.0;
        for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * x[j];
        y[i] = s;
    }
    return y;
}

Vector transposed_times_reference(const Matrix& a, const Vector& x) {
    require_shape(a.rows() == x.size(), "transposed_times: dimension mismatch");
    Vector y(a.cols(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double xi = x[i];
        for (std::size_t j = 0; j < a.cols(); ++j) y[j] += a(i, j) * xi;
    }
    return y;
}

Matrix gram_reference(const Matrix& a) {
    Matrix g(a.cols(), a.cols());
    for (std::size_t i = 0; i < a.cols(); ++i) {
        for (std::size_t j = i; j < a.cols(); ++j) {
            double s = 0.0;
            for (std::size_t k = 0; k < a.rows(); ++k) s += a(k, i) * a(k, j);
            g(i, j) = s;
            g(j, i) = s;
        }
    }
    return g;
}

Matrix weighted_gram_reference(const Matrix& a, const Vector& w) {
    require_shape(a.rows() == w.size(), "weighted_gram: weight length mismatch");
    Matrix g(a.cols(), a.cols());
    for (std::size_t i = 0; i < a.cols(); ++i) {
        for (std::size_t j = i; j < a.cols(); ++j) {
            double s = 0.0;
            for (std::size_t k = 0; k < a.rows(); ++k) s += w[k] * a(k, i) * a(k, j);
            g(i, j) = s;
            g(j, i) = s;
        }
    }
    return g;
}

#if CELLSYNC_SIMD

// Chunked kernels: fixed-width blocks of simd_chunk_doubles independent
// accumulator chains, living in numerics/simd_kernels.inc and reached
// through the runtime ISA dispatch table (numerics/simd_dispatch.h). Per
// output element the term order matches the reference loops exactly
// (increasing reduction index), so results are bit-identical on every
// default dispatch tier — the win comes from breaking the loop-carried
// reduction dependency and from contiguous stores the autovectorizer can
// widen (to ymm registers on the AVX2/FMA tiers).

Vector operator*(const Matrix& a, const Vector& x) {
    require_shape(a.cols() == x.size(), "operator*: matrix-vector dimension mismatch");
    Vector y(a.rows(), 0.0);
    simd::kernels().matvec(a.data().data(), a.rows(), a.cols(), x.data(), y.data());
    return y;
}

Vector transposed_times(const Matrix& a, const Vector& x) {
    require_shape(a.rows() == x.size(), "transposed_times: dimension mismatch");
    Vector y(a.cols(), 0.0);
    simd::kernels().transposed_times(a.data().data(), a.rows(), a.cols(), x.data(),
                                     y.data());
    return y;
}

// The left factor column t[k] = w[k] * a(k, i) (or a(k, i) unweighted) is
// hoisted here, in the baseline-compiled TU, once per i — so the hoist
// arithmetic is byte-for-byte the same whichever dispatch tier fills the
// upper-triangle row behind it. The ((w * a) * a) association matches the
// reference loops exactly.
Matrix gram(const Matrix& a) {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    Matrix g(n, n);
    if (n == 0) return g;
    const simd::Kernel_table& kt = simd::kernels();
    const double* ad = a.data().data();
    double* gd = &g(0, 0);
    Vector t(m);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < m; ++k) t[k] = ad[k * n + i];
        kt.gram_row_blocked(gd + i * n, ad, t.data(), m, n, i);
    }
    mirror_upper(g);
    return g;
}

Matrix weighted_gram(const Matrix& a, const Vector& w) {
    require_shape(a.rows() == w.size(), "weighted_gram: weight length mismatch");
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    Matrix g(n, n);
    if (n == 0) return g;
    const simd::Kernel_table& kt = simd::kernels();
    const double* ad = a.data().data();
    double* gd = &g(0, 0);
    Vector t(m);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < m; ++k) t[k] = w[k] * ad[k * n + i];
        kt.gram_row_blocked(gd + i * n, ad, t.data(), m, n, i);
    }
    mirror_upper(g);
    return g;
}

#else  // !CELLSYNC_SIMD

Vector operator*(const Matrix& a, const Vector& x) { return matvec_reference(a, x); }

Vector transposed_times(const Matrix& a, const Vector& x) {
    return transposed_times_reference(a, x);
}

Matrix gram(const Matrix& a) { return gram_reference(a); }

Matrix weighted_gram(const Matrix& a, const Vector& w) {
    return weighted_gram_reference(a, w);
}

#endif  // CELLSYNC_SIMD

// The row-subset kernels run the same code in both builds. The Gram goes
// through the dispatched j-blocked kernel, which hoists (w * a) per row
// and so keeps the ((w * a) * a) association of the reference.

Matrix weighted_gram_rows(const Matrix& a, const std::vector<std::size_t>& rows,
                          const Vector& w) {
    require_shape(rows.size() == w.size(), "weighted_gram_rows: weight length mismatch");
    for (std::size_t k : rows) {
        require_shape(k < a.rows(), "weighted_gram_rows: row index out of range");
    }
    const std::size_t n = a.cols();
    Matrix g(n, n);
    if (n == 0) return g;
    simd::kernels().gram_rows_blocked(&g(0, 0), a.data().data(), rows.data(), rows.size(),
                                      n, w.data());
    mirror_upper(g);
    return g;
}

Vector weighted_transposed_times_rows(const Matrix& a, const std::vector<std::size_t>& rows,
                                      const Vector& w, const Vector& x) {
    require_shape(rows.size() == w.size() && rows.size() == x.size(),
                  "weighted_transposed_times_rows: length mismatch");
    const std::size_t cols = a.cols();
    Vector y(cols, 0.0);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        require_shape(rows[r] < a.rows(),
                      "weighted_transposed_times_rows: row index out of range");
        const double* ak = a.data().data() + rows[r] * cols;
        const double wx = w[r] * x[r];
        for (std::size_t j = 0; j < cols; ++j) y[j] += ak[j] * wx;
    }
    return y;
}

}  // namespace cellsync
