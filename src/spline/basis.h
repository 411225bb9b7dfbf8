// Abstract function basis on [0, 1].
//
// The single-cell expression is expanded as f_alpha(phi) =
// sum_i alpha_i psi_i(phi) (paper Eq 4). The deconvolution core is written
// against this interface so the natural-spline basis of the paper and the
// B-spline ablation alternative are interchangeable.
#pragma once

#include <memory>

#include "numerics/banded.h"
#include "numerics/matrix.h"
#include "numerics/vector_ops.h"

namespace cellsync {

/// Closed sub-interval of [0, 1] outside which a basis function is
/// identically zero. A global basis reports {0, 1}.
struct Basis_support {
    double lo = 0.0;
    double hi = 1.0;

    bool contains(double x) const { return x >= lo && x <= hi; }
    bool is_global() const { return lo <= 0.0 && hi >= 1.0; }
};

/// A finite family of C2 basis functions {psi_i} on the phase interval
/// [0, 1].
class Basis {
  public:
    virtual ~Basis() = default;

    /// Number of basis functions Nc.
    virtual std::size_t size() const = 0;

    /// psi_i(x). i must be < size(); x is clamped to [0,1] by callers.
    virtual double value(std::size_t i, double x) const = 0;

    /// psi_i'(x).
    virtual double derivative(std::size_t i, double x) const = 0;

    /// psi_i''(x).
    virtual double second_derivative(std::size_t i, double x) const = 0;

    /// Support of psi_i: value/derivative/second_derivative are exactly
    /// 0.0 outside it. The default is the whole interval (correct for any
    /// basis); locally supported bases (B-splines) override it, which lets
    /// design_matrix() skip the out-of-support evaluations entirely and
    /// gives the banded product kernels their structure.
    virtual Basis_support support(std::size_t i) const {
        (void)i;
        return {0.0, 1.0};
    }

    /// Second-derivative penalty Gram matrix
    /// Omega_ij = integral_0^1 psi_i''(x) psi_j''(x) dx (paper Eq 5's
    /// regularizer in coefficient space). The default implementation uses
    /// high-order quadrature; subclasses with piecewise-polynomial second
    /// derivatives override it with exact formulas.
    virtual Matrix penalty_matrix() const;

    /// Design matrix B with B(p, i) = psi_i(points[p]). Entries outside a
    /// basis function's support are exact zeros written without evaluating
    /// the function.
    Matrix design_matrix(const Vector& points) const;

    /// design_matrix() annotated with each row's nonzero span — the input
    /// the banded Gram/mat-vec kernels in numerics/banded.h consume. For a
    /// cubic B-spline basis each row holds at most 4 nonzeros. The spans
    /// fall out of the basis supports during evaluation (a row's span
    /// covers the basis functions whose support contains the point), so
    /// the stored values are never re-scanned; a span may include exact
    /// zeros at support boundaries, which the kernels tolerate by
    /// construction.
    Banded_matrix design_matrix_banded(const Vector& points) const;

    /// The packed-storage design (numerics/banded.h
    /// Packed_banded_matrix), emitted directly: support-derived spans
    /// first, then only the in-span values — the dense matrix is never
    /// materialized. Bit-identical to packing design_matrix().
    Packed_banded_matrix design_matrix_packed(const Vector& points) const;

    /// The design behind the per-matrix layout seam: packed when the
    /// support-derived occupancy is at or below the threshold (the dense
    /// storage is then never allocated), dense-backed banded otherwise.
    Design_matrix design_matrix_auto(
        const Vector& points, double packed_threshold = packed_occupancy_threshold) const;

    /// Derivative design matrix B' with B'(p, i) = psi_i'(points[p]).
    Matrix derivative_matrix(const Vector& points) const;

    /// Evaluate the expansion sum_i alpha_i psi_i at x, accumulating in
    /// increasing i. Overrides may locate x once for all basis functions
    /// but must return the same bits. Throws std::invalid_argument if
    /// alpha.size() != size().
    virtual double expand(const Vector& alpha, double x) const;

    /// Evaluate the expansion derivative at x.
    double expand_derivative(const Vector& alpha, double x) const;

    /// Sample the expansion on a grid of points.
    Vector expand_on(const Vector& alpha, const Vector& points) const;
};

}  // namespace cellsync
