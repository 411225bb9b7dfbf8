#include "spline/cubic_spline.h"

#include <algorithm>
#include <stdexcept>

namespace cellsync {

Cubic_spline::Cubic_spline(Vector x, Vector y) : x_(std::move(x)), y_(std::move(y)) {
    if (x_.size() != y_.size()) throw std::invalid_argument("Cubic_spline: size mismatch");
    if (x_.size() < 2) throw std::invalid_argument("Cubic_spline: need at least 2 knots");
    for (std::size_t i = 0; i + 1 < x_.size(); ++i) {
        if (!(x_[i] < x_[i + 1])) {
            throw std::invalid_argument("Cubic_spline: knots must be strictly ascending");
        }
    }

    const std::size_t n = x_.size();
    m_.assign(n, 0.0);
    if (n > 2) solve_second_derivatives();  // else a straight line: all zero

    // Per-segment slope and cubic coefficients, computed once so the
    // evaluators only run the polynomial.
    slope_.resize(n - 1);
    cubic_.resize(n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        const double h = x_[i + 1] - x_[i];
        slope_[i] = (y_[i + 1] - y_[i]) / h - h * (2.0 * m_[i] + m_[i + 1]) / 6.0;
        cubic_[i] = (m_[i + 1] - m_[i]) / (6.0 * h);
    }
}

void Cubic_spline::solve_second_derivatives() {
    const std::size_t n = x_.size();
    // Thomas algorithm on the natural-spline tridiagonal system for the
    // interior second derivatives m_[1..n-2].
    const std::size_t interior = n - 2;
    Vector diag(interior), upper(interior), rhs(interior);
    for (std::size_t i = 0; i < interior; ++i) {
        const double h0 = x_[i + 1] - x_[i];
        const double h1 = x_[i + 2] - x_[i + 1];
        diag[i] = (h0 + h1) / 3.0;
        upper[i] = h1 / 6.0;
        rhs[i] = (y_[i + 2] - y_[i + 1]) / h1 - (y_[i + 1] - y_[i]) / h0;
    }
    // Forward sweep (the sub-diagonal equals the previous row's upper value).
    for (std::size_t i = 1; i < interior; ++i) {
        const double w = upper[i - 1] / diag[i - 1];
        diag[i] -= w * upper[i - 1];
        rhs[i] -= w * rhs[i - 1];
    }
    // Back substitution.
    m_[interior] = rhs[interior - 1] / diag[interior - 1];
    for (std::size_t i = interior - 1; i >= 1; --i) {
        m_[i] = (rhs[i - 1] - upper[i - 1] * m_[i + 1]) / diag[i - 1];
    }
}

std::size_t Cubic_spline::segment(double q) const {
    const auto it = std::upper_bound(x_.begin(), x_.end(), q);
    if (it == x_.begin()) return 0;
    const std::size_t i = static_cast<std::size_t>(it - x_.begin()) - 1;
    return std::min(i, x_.size() - 2);
}

double Cubic_spline::operator()(double q) const {
    const std::size_t i = segment(q);
    if (q < x_.front() || q > x_.back()) {
        // Linear extrapolation with the boundary slope (natural spline).
        const double edge = q < x_.front() ? x_.front() : x_.back();
        return (*this)(edge) + derivative(edge) * (q - edge);
    }
    return interior_value(i, q);
}

double Cubic_spline::derivative(double q) const {
    const std::size_t i = segment(q);
    const double h = x_[i + 1] - x_[i];
    const double t = std::clamp(q, x_.front(), x_.back()) - x_[i];
    return slope_[i] + m_[i] * t + 0.5 * (m_[i + 1] - m_[i]) / h * t * t;
}

double Cubic_spline::second_derivative(double q) const {
    if (q < x_.front() || q > x_.back()) return 0.0;
    const std::size_t i = segment(q);
    const double h = x_[i + 1] - x_[i];
    const double t = q - x_[i];
    return m_[i] + (m_[i + 1] - m_[i]) / h * t;
}

}  // namespace cellsync
