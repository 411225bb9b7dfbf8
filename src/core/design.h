// Shared per-design precomputation for the deconvolution estimator.
//
// Everything the estimator derives from the (basis, kernel, constraint)
// triple — the kernel matrix K, the roughness penalty Omega, the physical
// constraint blocks, the constraint-geometry reduction used by the QP,
// and K and Omega on that reduction's null space — is independent of the
// gene being estimated. The seed implementation re-derived all of it for
// every gene, every CV fold, and every bootstrap replicate;
// Design_artifacts computes it exactly once and is shared immutably
// across genes, lambda grid points, replicates, and threads.
#pragma once

#include <memory>

#include "biology/cell_cycle.h"
#include "core/constraints.h"
#include "numerics/qp_solver.h"
#include "population/kernel_builder.h"
#include "spline/basis.h"

namespace cellsync {

/// The estimator's lambda-independent blocks on an equality null space
/// x = x0 + Z y. With them a fold's reduced QP is assembled in O(nz^2)
/// per lambda: Hr = P + lambda Q and gr = p + lambda q, where P and p
/// are the fold's data and ridge terms built from kz and kx0.
struct Reduced_design {
    Matrix kz;                ///< K Z (m x nz)
    Vector kx0;               ///< K x0
    Matrix penalty;           ///< Q = 2 Z' Omega Z
    Vector penalty_gradient;  ///< q = 2 Z' Omega x0
    Matrix ztz;               ///< Z'Z, for the ridge term
    Vector ztx0;              ///< Z' x0
};

/// Reduce the design's kernel and penalty onto `prep`'s null space.
Reduced_design make_reduced_design(const Matrix& kernel, const Matrix& penalty,
                                   const Qp_constraint_prep& prep);

/// Immutable design-level precomputation. Construct via
/// make_design_artifacts(); share via std::shared_ptr — nothing in here
/// depends on the measurement values, so concurrent readers are safe.
struct Design_artifacts {
    std::shared_ptr<const Basis> basis;
    Cell_cycle_config config;
    Vector times;          ///< kernel time grid (required measurement times)
    Matrix kernel_matrix;  ///< K(m, i) = integral Q(phi, t_m) psi_i(phi) dphi
    Matrix penalty;        ///< roughness Gram matrix Omega

    Constraint_options constraint_options;  ///< geometry the blocks were built for
    Constraint_set constraints;             ///< equality + positivity blocks
    /// Equality null-space reduction + reduced inequality rows, shared by
    /// every constrained solve against this design.
    std::shared_ptr<const Qp_constraint_prep> constraint_prep;
    /// Kernel and penalty on constraint_prep's null space, shared by
    /// every k-fold lambda sweep against this design.
    Reduced_design reduced_design;
};

/// Build the artifacts for one (basis, kernel, config, constraints) tuple.
/// Throws std::invalid_argument on a null basis or invalid config.
std::shared_ptr<const Design_artifacts> make_design_artifacts(
    std::shared_ptr<const Basis> basis, const Kernel_grid& kernel,
    const Cell_cycle_config& config, const Constraint_options& constraint_options = {});

}  // namespace cellsync
