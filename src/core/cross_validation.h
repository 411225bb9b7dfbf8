// Selection of the smoothness weight lambda (paper Eq 5: "selected via
// cross validation", citing Craven & Wahba 1978).
//
// Two selectors are provided:
//  * k-fold cross-validation on the full constrained estimator — the
//    default, honest about the constraints;
//  * generalized cross-validation (GCV) on the unconstrained ridge path —
//    the classical Craven-Wahba criterion, cheap enough for dense lambda
//    grids.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/deconvolver.h"
#include "core/worker_pool.h"

namespace cellsync {

/// Outcome of a lambda sweep.
struct Lambda_selection {
    double best_lambda = 0.0;
    Vector lambdas;    ///< grid searched
    Vector scores;     ///< CV or GCV score per grid point (lower is better)
    std::string method;///< "kfold" or "gcv"
};

/// Logarithmically spaced lambda grid (default 25 points, 1e-8 .. 1e2).
/// Throws std::invalid_argument for count < 2 or non-positive bounds.
Vector default_lambda_grid(std::size_t count = 25, double lo = 1e-8, double hi = 1e2);

/// k-fold CV: folds are contiguous-free random partitions of the
/// measurement indices (seeded). Each fold is predicted from a model
/// fitted on the remaining rows with the full constrained estimator; the
/// score is the weighted held-out squared error. `folds` is clamped to the
/// measurement count (leave-one-out at the limit).
/// Throws std::invalid_argument for folds < 2 or an empty grid.
Lambda_selection select_lambda_kfold(const Deconvolver& deconvolver,
                                     const Measurement_series& series,
                                     const Deconvolution_options& base_options,
                                     const Vector& lambda_grid, std::size_t folds = 5,
                                     std::uint64_t seed = 77);

/// GCV: V(lambda) = m * ||(I - A) z||^2 / tr(I - A)^2 in whitened space,
/// with A the unconstrained hat matrix. The normal-equation blocks are
/// assembled once and swept across the grid through a cached
/// Kkt_factorization.
/// Throws std::invalid_argument for an empty grid.
Lambda_selection select_lambda_gcv(const Deconvolver& deconvolver,
                                   const Measurement_series& series,
                                   const Vector& lambda_grid);

/// The fold assignment used by select_lambda_kfold: a seeded shuffle of
/// the measurement indices (fold of perm[p] is p % folds).
std::vector<std::size_t> kfold_permutation(std::size_t count, std::uint64_t seed);

/// One series' k-fold cross-validation, planned once and scored per
/// lambda in the equality null space x = x0 + Z y. Construction does all
/// the lambda-independent work: series checks, the seeded fold
/// assignment, each fold's held-out rows, and its reduced data term
/// P = 2 (KZ)'W(KZ) + 2 ridge Z'Z, p = 2 (KZ)'W(Kx0 - G) + 2 ridge Z'x0
/// over the train rows, from the design's Reduced_design (rebuilt once
/// here for a constraint geometry the design did not cache). Scoring a
/// lambda then assembles each fold's Hr = P + lambda Q, gr = p + lambda q
/// in O(nz^2), runs the Goldfarb-Idnani core on it, and predicts each
/// held-out row as (KZ)_i y + (Kx0)_i. This is the per-fold
/// Deconvolver::estimate_on_rows fit with its products reassociated:
/// scores agree with it to rounding (<= 1e-6 relative on the test
/// fixtures), not bit for bit. Each score is a pure function of
/// (plan, lambda), so a sweep is bitwise the same at any thread count.
/// A fold with fewer than 2 train rows is skipped. Immutable after
/// construction: score() may run concurrently for different lambdas.
class Kfold_plan {
  public:
    /// `folds` is clamped to the measurement count (leave-one-out at the
    /// limit); a fold with fewer than 2 training rows is skipped. Throws
    /// std::invalid_argument for folds < 2, an invalid series, a series
    /// whose length differs from the kernel time grid, or one so short
    /// that every fold is skipped (2 timepoints).
    Kfold_plan(const Deconvolver& deconvolver, const Measurement_series& series,
               const Deconvolution_options& base_options, std::size_t folds,
               std::uint64_t seed);

    /// Mean weighted held-out squared error at `lambda`; +inf when a
    /// fold's constrained fit fails or is not finite (that lambda is
    /// disqualified). Throws std::invalid_argument for lambda < 0.
    double score(double lambda) const;

    /// Score every grid point — in parallel over `pool` when given — and
    /// pick the lowest score (the first on ties). Throws
    /// std::invalid_argument on an empty grid.
    Lambda_selection select(const Vector& lambda_grid, Worker_pool* pool = nullptr) const;

  private:
    struct Fold {
        std::vector<std::size_t> test;  ///< held-out rows
        Matrix hessian;                 ///< P over the train rows
        Vector gradient;                ///< p over the train rows
    };

    /// Empty when the constraint geometry itself cannot be built: every
    /// fold fit fails, as it did when each fit rebuilt the geometry.
    std::shared_ptr<const Qp_constraint_prep> prep_;
    std::shared_ptr<const Reduced_design> reduced_;
    Qp_options qp_;
    Vector values_;
    Vector weights_;
    std::vector<Fold> folds_;
};

}  // namespace cellsync
