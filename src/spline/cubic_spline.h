// Natural cubic spline interpolation.
//
// The deconvolution estimator models the synchronized single-cell
// expression f(phi) as a natural cubic spline (paper Eq 4). This class is
// the scalar interpolant; the basis expansion lives in spline_basis.h.
#pragma once

#include "numerics/vector_ops.h"

namespace cellsync {

/// Natural cubic spline through (x_i, y_i): C2 piecewise cubic with zero
/// second derivative at both boundary knots. Outside the knot span the
/// spline continues linearly (consistent with the natural boundary
/// condition).
class Cubic_spline {
  public:
    /// Throws std::invalid_argument if sizes differ, fewer than 2 knots, or
    /// x is not strictly ascending. Two knots degenerate gracefully to a
    /// straight line.
    Cubic_spline(Vector x, Vector y);

    /// Spline value at q.
    double operator()(double q) const;

    /// First derivative at q.
    double derivative(double q) const;

    /// Second derivative at q (zero outside the knot span).
    double second_derivative(double q) const;

    /// Index of the knot interval [x_i, x_{i+1}] holding q (clamped to
    /// the first/last interval outside the knot span).
    std::size_t segment(double q) const;

    /// The segment's cubic at q, for q inside the knot span and `segment`
    /// == segment(q): operator()(q) without the search.
    double interior_value(std::size_t segment, double q) const {
        const double t = q - x_[segment];
        return y_[segment] + slope_[segment] * t + 0.5 * m_[segment] * t * t +
               cubic_[segment] * t * t * t;
    }

    const Vector& knots() const { return x_; }
    const Vector& values() const { return y_; }

    /// Second derivatives at the knots (the tridiagonal solve's output);
    /// first and last are exactly zero by the natural boundary condition.
    const Vector& knot_second_derivatives() const { return m_; }

  private:
    void solve_second_derivatives();

    Vector x_;
    Vector y_;
    Vector m_;      // second derivatives at knots
    Vector slope_;  // per segment: first derivative at its left knot
    Vector cubic_;  // per segment: cubic coefficient (m_{i+1} - m_i) / (6 h)
};

}  // namespace cellsync
