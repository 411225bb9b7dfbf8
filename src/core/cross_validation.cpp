#include "core/cross_validation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/telemetry.h"
#include "numerics/kkt_factorization.h"

namespace cellsync {

Vector default_lambda_grid(std::size_t count, double lo, double hi) {
    if (count < 2) throw std::invalid_argument("default_lambda_grid: need at least 2 points");
    if (!(lo > 0.0 && hi > lo)) {
        throw std::invalid_argument("default_lambda_grid: need 0 < lo < hi");
    }
    Vector grid(count);
    const double step = (std::log10(hi) - std::log10(lo)) / static_cast<double>(count - 1);
    for (std::size_t i = 0; i < count; ++i) {
        grid[i] = std::pow(10.0, std::log10(lo) + step * static_cast<double>(i));
    }
    return grid;
}

std::vector<std::size_t> kfold_permutation(std::size_t count, std::uint64_t seed) {
    std::vector<std::size_t> perm(count);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    Rng rng(seed);
    std::shuffle(perm.begin(), perm.end(), rng.engine());
    return perm;
}

Kfold_plan::Kfold_plan(const Deconvolver& deconvolver, const Measurement_series& series,
                       const Deconvolution_options& base_options, std::size_t folds,
                       std::uint64_t seed)
    : qp_(base_options.qp), values_(series.values) {
    series.validate();
    if (folds < 2) throw std::invalid_argument("k-fold CV: need at least 2 folds");
    const std::shared_ptr<const Design_artifacts>& artifacts = deconvolver.artifacts();
    const std::size_t m = series.size();
    if (m != artifacts->times.size()) {
        throw std::invalid_argument("Deconvolver: series length differs from kernel time grid");
    }
    folds = std::min(folds, m);
    weights_ = series.weights();
    try {
        prep_ = Constrained_qp(artifacts, base_options).prep();
        if (prep_ == artifacts->constraint_prep) {
            // Aliasing pointer: the design's blocks, kept alive by the design.
            reduced_ =
                std::shared_ptr<const Reduced_design>(artifacts, &artifacts->reduced_design);
        } else {
            reduced_ = std::make_shared<const Reduced_design>(
                make_reduced_design(artifacts->kernel_matrix, artifacts->penalty, *prep_));
        }
    } catch (const std::runtime_error&) {
        // Left empty: every fold fit is disqualified in score().
    }

    // Random fold assignment, fixed across the lambda grid for a fair sweep.
    const std::vector<std::size_t> perm = kfold_permutation(m, seed);
    for (std::size_t f = 0; f < folds; ++f) {
        Fold fold;
        std::vector<std::size_t> train;
        for (std::size_t p = 0; p < m; ++p) {
            (p % folds == f ? fold.test : train).push_back(perm[p]);
        }
        if (train.size() < 2) continue;
        if (reduced_) {
            const Reduced_design& reduced = *reduced_;
            Matrix kz_train(train.size(), reduced.kz.cols());
            Vector w_train(train.size());
            Vector weighted_residual(train.size());  // W (Kx0 - G) on the train rows
            for (std::size_t r = 0; r < train.size(); ++r) {
                const std::size_t idx = train[r];
                kz_train.set_row(r, reduced.kz.row(idx));
                w_train[r] = weights_[idx];
                weighted_residual[r] = weights_[idx] * (reduced.kx0[idx] - values_[idx]);
            }
            const double ridge = base_options.ridge;
            fold.hessian = 2.0 * (weighted_gram(kz_train, w_train) + ridge * reduced.ztz);
            fold.gradient =
                2.0 * (transposed_times(kz_train, weighted_residual) + ridge * reduced.ztx0);
        }
        folds_.push_back(std::move(fold));
    }
    // With no fold left every score would be 0 and select() would quietly
    // return the grid's first lambda.
    if (folds_.empty()) {
        throw std::invalid_argument(std::to_string(m) +
                                    "-timepoint series: no k-fold CV fold keeps 2 training "
                                    "rows; pass --lambda to fix lambda instead");
    }
}

double Kfold_plan::score(double lambda) const {
    if (lambda < 0.0) throw std::invalid_argument("Deconvolver: lambda must be >= 0");
    static telemetry::Counter& solves = telemetry::counter("cv.solves");
    constexpr double disqualified = std::numeric_limits<double>::infinity();
    double score = 0.0;
    for (const Fold& fold : folds_) {
        if (!reduced_) return disqualified;
        solves.add();
        const Reduced_design& reduced = *reduced_;
        const std::size_t nz = reduced.kz.cols();
        // y stays empty on a fully determined geometry: x = x0 for every lambda.
        Vector y;
        if (nz > 0) {
            Matrix hessian = fold.hessian;
            for (std::size_t i = 0; i < nz; ++i) {
                for (std::size_t j = 0; j < nz; ++j) {
                    hessian(i, j) += lambda * reduced.penalty(i, j);
                }
            }
            Vector gradient = fold.gradient;
            axpy(lambda, reduced.penalty_gradient, gradient);
            try {
                y = solve_qp_dual_reduced(hessian, gradient, *prep_, qp_).x;
            } catch (const std::runtime_error&) {
                // A lambda that breaks the QP is disqualified.
                return disqualified;
            }
        }
        for (std::size_t idx : fold.test) {
            double predicted = reduced.kx0[idx];
            for (std::size_t j = 0; j < nz; ++j) predicted += reduced.kz(idx, j) * y[j];
            const double r = values_[idx] - predicted;
            score += weights_[idx] * r * r;
        }
        // Also catches a non-finite y: every held-out prediction reads all of it.
        if (!std::isfinite(score)) return disqualified;
    }
    return score / static_cast<double>(values_.size());
}

Lambda_selection Kfold_plan::select(const Vector& lambda_grid, Worker_pool* pool) const {
    if (lambda_grid.empty()) throw std::invalid_argument("k-fold CV: empty lambda grid");
    static telemetry::Histogram& grid_points = telemetry::histogram("cv.lambda_grid_points");
    grid_points.record(static_cast<double>(lambda_grid.size()));

    Lambda_selection sel;
    sel.method = "kfold";
    sel.lambdas = lambda_grid;
    sel.scores.assign(lambda_grid.size(), 0.0);
    const auto score_one = [&](std::size_t li) { sel.scores[li] = score(lambda_grid[li]); };
    if (pool != nullptr) {
        pool->parallel_for(lambda_grid.size(), score_one);
    } else {
        for (std::size_t li = 0; li < lambda_grid.size(); ++li) score_one(li);
    }
    static telemetry::Counter& disqualified = telemetry::counter("cv.lambdas_disqualified");
    disqualified.add(static_cast<std::uint64_t>(
        std::count_if(sel.scores.begin(), sel.scores.end(),
                      [](double s) { return std::isinf(s); })));

    const auto best = std::min_element(sel.scores.begin(), sel.scores.end());
    sel.best_lambda = sel.lambdas[static_cast<std::size_t>(best - sel.scores.begin())];
    return sel;
}

Lambda_selection select_lambda_kfold(const Deconvolver& deconvolver,
                                     const Measurement_series& series,
                                     const Deconvolution_options& base_options,
                                     const Vector& lambda_grid, std::size_t folds,
                                     std::uint64_t seed) {
    return Kfold_plan(deconvolver, series, base_options, folds, seed).select(lambda_grid);
}

Lambda_selection select_lambda_gcv(const Deconvolver& deconvolver,
                                   const Measurement_series& series,
                                   const Vector& lambda_grid) {
    series.validate();
    if (lambda_grid.empty()) throw std::invalid_argument("select_lambda_gcv: empty grid");
    const std::size_t m = series.size();
    const std::size_t n = deconvolver.basis().size();
    const Vector w = series.weights();

    // Whitened design Kw = W^{1/2} K and data z = W^{1/2} G.
    Matrix kw(m, n);
    Vector z(m);
    for (std::size_t i = 0; i < m; ++i) {
        const double sw = std::sqrt(w[i]);
        for (std::size_t j = 0; j < n; ++j) kw(i, j) = sw * deconvolver.kernel_matrix()(i, j);
        z[i] = sw * series.values[i];
    }

    // One cached KKT object sweeps the grid: the Gram and penalty blocks
    // are assembled once, each lambda refactors in place.
    Kkt_factorization kkt(gram(kw), deconvolver.penalty(), Matrix(0, n));

    Lambda_selection sel;
    sel.method = "gcv";
    sel.lambdas = lambda_grid;
    sel.scores.assign(lambda_grid.size(), 0.0);

    for (std::size_t li = 0; li < lambda_grid.size(); ++li) {
        kkt.factorize(lambda_grid[li], 1e-9);
        // tr(A) = sum_i kw_i' (Kw'Kw + lambda Omega)^-1 kw_i and
        // fitted = Kw (normal)^-1 Kw' z without forming the hat matrix.
        double trace = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
            const Vector row = kw.row(i);
            trace += dot(row, kkt.solve(scaled(row, -1.0), Vector{}));
        }
        const Vector fitted = kw * kkt.solve(scaled(transposed_times(kw, z), -1.0), Vector{});
        double rss = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
            const double r = z[i] - fitted[i];
            rss += r * r;
        }
        const double denom = static_cast<double>(m) - trace;
        sel.scores[li] = denom > 1e-9
                             ? static_cast<double>(m) * rss / (denom * denom)
                             : std::numeric_limits<double>::infinity();
    }

    const auto best = std::min_element(sel.scores.begin(), sel.scores.end());
    sel.best_lambda = sel.lambdas[static_cast<std::size_t>(best - sel.scores.begin())];
    return sel;
}

}  // namespace cellsync
