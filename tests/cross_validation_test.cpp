#include "core/cross_validation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "biology/gene_profiles.h"
#include "core/batch.h"
#include "core/batch_engine.h"
#include "core/forward_model.h"
#include "spline/spline_basis.h"
#include "numerics/statistics.h"

namespace cellsync {
namespace {

class CrossValidationTest : public ::testing::Test {
  protected:
    static void SetUpTestSuite() {
        Kernel_build_options options;
        options.n_cells = 20000;
        options.n_bins = 120;
        options.seed = 404;
        kernel_ = new Kernel_grid(build_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                               linspace(0.0, 180.0, 13), options));
        deconvolver_ = new Deconvolver(std::make_shared<Natural_spline_basis>(12), *kernel_,
                                       Cell_cycle_config{});
    }
    static void TearDownTestSuite() {
        delete deconvolver_;
        delete kernel_;
        deconvolver_ = nullptr;
        kernel_ = nullptr;
    }
    static Kernel_grid* kernel_;
    static Deconvolver* deconvolver_;
};

Kernel_grid* CrossValidationTest::kernel_ = nullptr;
Deconvolver* CrossValidationTest::deconvolver_ = nullptr;

// ---------------------------------------------------------------------------
// Oracle: k-fold scoring as a full-space refit — one
// Deconvolver::estimate_on_rows fit per (lambda, fold), held-out rows
// predicted from the fit's coefficients. Kfold_plan scores the same fits
// in the equality null space, so its scores match to rounding
// (kScoreRelTol), its disqualified lambdas and selected lambda exactly.
// ---------------------------------------------------------------------------

constexpr double kScoreRelTol = 1e-6;

double oracle_lambda_score(const Deconvolver& deconvolver, const Measurement_series& series,
                           const Deconvolution_options& base_options,
                           const std::vector<std::size_t>& permutation, std::size_t folds,
                           double lambda) {
    const std::size_t m = series.size();
    const Vector weights = series.weights();
    Deconvolution_options options = base_options;
    options.lambda = lambda;
    double score = 0.0;
    for (std::size_t fold = 0; fold < folds; ++fold) {
        std::vector<std::size_t> train, test;
        for (std::size_t p = 0; p < m; ++p) {
            (p % folds == fold ? test : train).push_back(permutation[p]);
        }
        if (train.size() < 2) continue;
        try {
            const Single_cell_estimate fit =
                deconvolver.estimate_on_rows(series, train, options);
            for (std::size_t idx : test) {
                const double pred =
                    dot(deconvolver.kernel_matrix().row(idx), fit.coefficients());
                const double r = series.values[idx] - pred;
                score += weights[idx] * r * r;
            }
        } catch (const std::runtime_error&) {
            return std::numeric_limits<double>::infinity();
        }
    }
    return score / static_cast<double>(m);
}

Lambda_selection oracle_select(const Deconvolver& deconvolver, const Measurement_series& series,
                               const Deconvolution_options& base_options,
                               const Vector& lambda_grid, std::size_t folds,
                               std::uint64_t seed) {
    folds = std::min(folds, series.size());
    const std::vector<std::size_t> perm = kfold_permutation(series.size(), seed);
    Lambda_selection sel;
    sel.lambdas = lambda_grid;
    for (double lambda : lambda_grid) {
        sel.scores.push_back(
            oracle_lambda_score(deconvolver, series, base_options, perm, folds, lambda));
    }
    const auto best = std::min_element(sel.scores.begin(), sel.scores.end());
    sel.best_lambda = sel.lambdas[static_cast<std::size_t>(best - sel.scores.begin())];
    return sel;
}

void expect_close_selection(const Lambda_selection& oracle, const Lambda_selection& got) {
    ASSERT_EQ(oracle.scores.size(), got.scores.size());
    for (std::size_t i = 0; i < oracle.scores.size(); ++i) {
        EXPECT_EQ(std::isinf(oracle.scores[i]), std::isinf(got.scores[i]))
            << "lambda " << oracle.lambdas[i];
        if (std::isfinite(oracle.scores[i])) {
            EXPECT_LE(std::abs(got.scores[i] - oracle.scores[i]),
                      kScoreRelTol * std::abs(oracle.scores[i]))
                << "lambda " << oracle.lambdas[i];
        }
    }
    EXPECT_EQ(oracle.best_lambda, got.best_lambda);
    EXPECT_EQ(got.method, "kfold");
}

void expect_bitwise_selection(const Lambda_selection& expected, const Lambda_selection& got) {
    ASSERT_EQ(expected.scores.size(), got.scores.size());
    for (std::size_t i = 0; i < expected.scores.size(); ++i) {
        EXPECT_EQ(expected.scores[i], got.scores[i]) << "lambda " << expected.lambdas[i];
    }
    EXPECT_EQ(expected.best_lambda, got.best_lambda);
}

/// Noisy series of three shape families, so the oracle sees different
/// active sets and selected lambdas.
std::vector<Measurement_series> oracle_panel(const Kernel_grid& kernel) {
    const Gene_profile profiles[] = {sinusoid_profile(3.0, 2.0), pulse_profile(0.5, 4.0, 0.4, 0.08),
                                     ftsz_like_profile()};
    std::vector<Measurement_series> panel;
    Rng rng(31);
    const Noise_model noise{Noise_type::relative_gaussian, 0.08};
    for (const Gene_profile& profile : profiles) {
        panel.push_back(forward_measurements_noisy(kernel, profile.f, noise, rng));
    }
    return panel;
}


TEST(LambdaGrid, DefaultGridIsLogSpaced) {
    const Vector grid = default_lambda_grid();
    EXPECT_EQ(grid.size(), 25u);
    EXPECT_NEAR(grid.front(), 1e-8, 1e-15);
    EXPECT_NEAR(grid.back(), 1e2, 1e-9);
    for (std::size_t i = 0; i + 1 < grid.size(); ++i) {
        EXPECT_NEAR(grid[i + 1] / grid[i], grid[1] / grid[0], 1e-9);
    }
}

TEST(LambdaGrid, Validation) {
    EXPECT_THROW(default_lambda_grid(1), std::invalid_argument);
    EXPECT_THROW(default_lambda_grid(10, 0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(default_lambda_grid(10, 1.0, 0.5), std::invalid_argument);
}

TEST_F(CrossValidationTest, KfoldPicksModerateLambdaOnNoisyData) {
    const Gene_profile truth = sinusoid_profile(3.0, 2.0);
    Rng rng(21);
    const Noise_model noise{Noise_type::relative_gaussian, 0.10};
    const Measurement_series data =
        forward_measurements_noisy(*kernel_, truth.f, noise, rng);
    const Lambda_selection sel = select_lambda_kfold(
        *deconvolver_, data, Deconvolution_options{}, default_lambda_grid(13, 1e-7, 1e1), 5);
    EXPECT_EQ(sel.method, "kfold");
    EXPECT_EQ(sel.scores.size(), 13u);
    // The selected lambda should beat both extremes of the grid on CV score.
    const double best_score = *std::min_element(sel.scores.begin(), sel.scores.end());
    EXPECT_LE(best_score, sel.scores.front());
    EXPECT_LE(best_score, sel.scores.back());
    EXPECT_GT(sel.best_lambda, 0.0);
}

TEST_F(CrossValidationTest, KfoldSelectionImprovesRecovery) {
    const Gene_profile truth = sinusoid_profile(3.0, 2.0);
    Rng rng(22);
    const Noise_model noise{Noise_type::relative_gaussian, 0.10};
    const Measurement_series data =
        forward_measurements_noisy(*kernel_, truth.f, noise, rng);
    const Lambda_selection sel = select_lambda_kfold(
        *deconvolver_, data, Deconvolution_options{}, default_lambda_grid(13, 1e-7, 1e1), 5);

    Deconvolution_options best_opts;
    best_opts.lambda = sel.best_lambda;
    Deconvolution_options tiny_opts;
    tiny_opts.lambda = 1e-9;

    const Vector grid = linspace(0.0, 1.0, 101);
    const Vector truth_samples = truth.sample(grid);
    const double err_best =
        rmse(deconvolver_->estimate(data, best_opts).sample(grid), truth_samples);
    const double err_tiny =
        rmse(deconvolver_->estimate(data, tiny_opts).sample(grid), truth_samples);
    EXPECT_LE(err_best, err_tiny * 1.05);  // CV choice no worse than overfit
}

TEST_F(CrossValidationTest, GcvScoresFiniteAndMinimumInterior) {
    const Gene_profile truth = sinusoid_profile(3.0, 2.0);
    Rng rng(23);
    const Noise_model noise{Noise_type::relative_gaussian, 0.10};
    const Measurement_series data =
        forward_measurements_noisy(*kernel_, truth.f, noise, rng);
    const Lambda_selection sel =
        select_lambda_gcv(*deconvolver_, data, default_lambda_grid(15, 1e-7, 1e1));
    EXPECT_EQ(sel.method, "gcv");
    for (double s : sel.scores) EXPECT_TRUE(std::isfinite(s));
    EXPECT_GT(sel.best_lambda, 0.0);
}

TEST_F(CrossValidationTest, FoldsClampedToMeasurementCount) {
    const Measurement_series data =
        forward_measurements(*kernel_, [](double) { return 2.0; });
    // folds = 50 > Nm = 13 behaves as leave-one-out, not an error.
    const Lambda_selection sel = select_lambda_kfold(
        *deconvolver_, data, Deconvolution_options{}, default_lambda_grid(5, 1e-5, 1e-1), 50);
    EXPECT_EQ(sel.scores.size(), 5u);
}

TEST_F(CrossValidationTest, ValidationErrors) {
    const Measurement_series data =
        forward_measurements(*kernel_, [](double) { return 2.0; });
    EXPECT_THROW(
        select_lambda_kfold(*deconvolver_, data, Deconvolution_options{}, {}, 5),
        std::invalid_argument);
    EXPECT_THROW(select_lambda_kfold(*deconvolver_, data, Deconvolution_options{},
                                     default_lambda_grid(5), 1),
                 std::invalid_argument);
    EXPECT_THROW(select_lambda_gcv(*deconvolver_, data, {}), std::invalid_argument);
}

TEST_F(CrossValidationTest, DeterministicGivenSeed) {
    const Gene_profile truth = sinusoid_profile(3.0, 1.0);
    Rng rng(24);
    const Noise_model noise{Noise_type::relative_gaussian, 0.05};
    const Measurement_series data =
        forward_measurements_noisy(*kernel_, truth.f, noise, rng);
    const Vector grid = default_lambda_grid(7, 1e-6, 1e0);
    const Lambda_selection a = select_lambda_kfold(*deconvolver_, data,
                                                   Deconvolution_options{}, grid, 4, 123);
    const Lambda_selection b = select_lambda_kfold(*deconvolver_, data,
                                                   Deconvolution_options{}, grid, 4, 123);
    for (std::size_t i = 0; i < a.scores.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.scores[i], b.scores[i]);
    }
    EXPECT_DOUBLE_EQ(a.best_lambda, b.best_lambda);
}

TEST_F(CrossValidationTest, PlanMatchesPerFoldRefitOracle) {
    // 1e308 overflows the Hessian: the QP throws and that lambda must be
    // disqualified (+inf) by both paths.
    Vector grid = default_lambda_grid(15, 1e-7, 1e1);
    grid.push_back(1e308);
    for (const Measurement_series& series : oracle_panel(*kernel_)) {
        const Lambda_selection oracle =
            oracle_select(*deconvolver_, series, Deconvolution_options{}, grid, 5, 77);
        const Lambda_selection plan =
            select_lambda_kfold(*deconvolver_, series, Deconvolution_options{}, grid, 5, 77);
        expect_close_selection(oracle, plan);
        EXPECT_TRUE(std::isinf(plan.scores.back()));
        EXPECT_TRUE(std::isfinite(plan.best_lambda));
    }
}

TEST_F(CrossValidationTest, PlanMatchesOracleOnRebuiltConstraintGeometry) {
    // A geometry the design did not cache: the plan rebuilds it (and its
    // reduced design) once, the oracle once per fold fit.
    Deconvolution_options options;
    options.constraints.positivity_points = 51;
    ASSERT_NE(options.constraints, deconvolver_->artifacts()->constraint_options);
    const Vector grid = default_lambda_grid(5, 1e-6, 1e0);
    for (const Measurement_series& series : oracle_panel(*kernel_)) {
        expect_close_selection(oracle_select(*deconvolver_, series, options, grid, 4, 9),
                               select_lambda_kfold(*deconvolver_, series, options, grid, 4, 9));
    }
}

TEST_F(CrossValidationTest, FullyDeterminedGeometryScoresTheParticularSolution) {
    // Equalities that pin every coefficient leave an empty null space:
    // each fold fit is x0 whatever lambda, in the plan and the oracle alike.
    auto pinned = std::make_shared<Design_artifacts>(*deconvolver_->artifacts());
    const std::size_t n = pinned->basis->size();
    pinned->constraints.equality = Matrix::identity(n);
    pinned->constraints.equality_rhs = Vector(n, 1.5);
    pinned->constraint_prep = std::make_shared<const Qp_constraint_prep>(
        n, pinned->constraints.equality, pinned->constraints.equality_rhs,
        pinned->constraints.inequality, pinned->constraints.inequality_rhs);
    ASSERT_TRUE(pinned->constraint_prep->fully_determined());
    pinned->reduced_design =
        make_reduced_design(pinned->kernel_matrix, pinned->penalty, *pinned->constraint_prep);
    const Deconvolver pinned_deconvolver(pinned);
    const Vector grid = default_lambda_grid(5, 1e-6, 1e0);
    for (const Measurement_series& series : oracle_panel(*kernel_)) {
        const Lambda_selection plan = select_lambda_kfold(
            pinned_deconvolver, series, Deconvolution_options{}, grid, 5, 77);
        expect_close_selection(
            oracle_select(pinned_deconvolver, series, Deconvolution_options{}, grid, 5, 77), plan);
        for (double score : plan.scores) EXPECT_EQ(score, plan.scores.front());
    }
}

TEST_F(CrossValidationTest, EngineCrossValidateBitwiseEqualsPlanAtOneAndFourThreads) {
    // Each score is a pure function of (plan, lambda): scoring the grid in
    // parallel changes no bit.
    Vector grid = default_lambda_grid(15, 1e-7, 1e1);
    grid.push_back(1e308);
    const std::vector<Measurement_series> panel = oracle_panel(*kernel_);
    for (std::size_t threads : {1u, 4u}) {
        Batch_engine_options engine_options;
        engine_options.threads = threads;
        const Batch_engine engine(deconvolver_->artifacts(), engine_options);
        for (const Measurement_series& series : panel) {
            const Lambda_selection got =
                engine.cross_validate(series, Deconvolution_options{}, grid, 5, 77);
            expect_bitwise_selection(
                select_lambda_kfold(*deconvolver_, series, Deconvolution_options{}, grid, 5, 77),
                got);
            EXPECT_TRUE(std::isinf(got.scores.back()));
        }
    }
}

TEST_F(CrossValidationTest, DeconvolveOneIsTheColdEstimateAtTheSelectedLambda) {
    // Only lambda selection runs in the null space; the estimate itself
    // stays the full-space cold solve, bit for bit.
    Batch_options options;
    options.lambda_grid = default_lambda_grid(9, 1e-7, 1e1);
    for (const Measurement_series& series : oracle_panel(*kernel_)) {
        const Batch_entry entry =
            deconvolve_one(*deconvolver_, series, options.lambda_grid, options);
        ASSERT_TRUE(entry.estimate.has_value()) << entry.error;
        const Lambda_selection sel = select_lambda_kfold(
            *deconvolver_, series, Deconvolution_options{}, options.lambda_grid, 5, 77);
        EXPECT_EQ(entry.lambda, sel.best_lambda);
        Deconvolution_options at_selected;
        at_selected.lambda = sel.best_lambda;
        const Vector expected = deconvolver_->estimate(series, at_selected).coefficients();
        ASSERT_EQ(entry.estimate->coefficients().size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(entry.estimate->coefficients()[i], expected[i]) << "coefficient " << i;
        }
    }
}

TEST_F(CrossValidationTest, OverflowingSeriesScoresAreInfOrFinite) {
    // Values alternating +-1e308 overflow inside the fold fits. A fit or a
    // held-out score that is not finite disqualifies its lambda; no NaN
    // may reach the selection, where min_element would treat it as a
    // winner by position.
    Vector values(kernel_->times().size());
    for (std::size_t m = 0; m < values.size(); ++m) values[m] = m % 2 == 0 ? 1e308 : -1e308;
    const Measurement_series series =
        Measurement_series::with_unit_sigma("huge", kernel_->times(), values);
    const Lambda_selection sel = select_lambda_kfold(*deconvolver_, series,
                                                     Deconvolution_options{},
                                                     default_lambda_grid(), 5, 77);
    for (std::size_t i = 0; i < sel.scores.size(); ++i) {
        EXPECT_TRUE(std::isinf(sel.scores[i]) || std::isfinite(sel.scores[i]))
            << "lambda " << sel.lambdas[i] << " scored " << sel.scores[i];
        EXPECT_GE(sel.scores[i], 0.0) << "lambda " << sel.lambdas[i];
    }
}

TEST_F(CrossValidationTest, PlanKeepsPerFitChecks) {
    const Measurement_series data =
        forward_measurements(*kernel_, [](double) { return 2.0; });
    const Kfold_plan plan(*deconvolver_, data, Deconvolution_options{}, 5, 77);
    EXPECT_THROW(plan.score(-1e-3), std::invalid_argument);
    EXPECT_TRUE(std::isfinite(plan.score(1e-3)));

    Measurement_series short_series = data;
    short_series.times.pop_back();
    short_series.values.pop_back();
    short_series.sigmas.pop_back();
    EXPECT_THROW(Kfold_plan(*deconvolver_, short_series, Deconvolution_options{}, 5, 77),
                 std::invalid_argument);
    EXPECT_THROW(Kfold_plan(*deconvolver_, data, Deconvolution_options{}, 1, 77),
                 std::invalid_argument);
}

TEST(KfoldPlanShortSeries, TwoTimepointsLeaveNoFoldAndThrowLabeled) {
    // Two timepoints clamp to 2 folds of 1 training row each; both are
    // skipped. Scoring nothing used to return 0 for every lambda and select
    // the grid's first; the plan now refuses and names the way out.
    Kernel_build_options build;
    build.n_cells = 2000;
    build.n_bins = 60;
    build.seed = 5;
    const Kernel_grid kernel = build_kernel(Cell_cycle_config{}, Smooth_volume_model{},
                                            Vector{0.0, 60.0}, build);
    const Deconvolver deconvolver(std::make_shared<Natural_spline_basis>(12), kernel,
                                  Cell_cycle_config{});
    const Measurement_series series =
        Measurement_series::with_unit_sigma("g1", kernel.times(), Vector{1.0, 2.0});
    try {
        const Kfold_plan plan(deconvolver, series, Deconvolution_options{}, 5, 77);
        FAIL() << "a plan with no scoreable fold was built";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("--lambda"), std::string::npos) << e.what();
    }
    const Batch_entry entry =
        deconvolve_one(deconvolver, series, default_lambda_grid(), Batch_options{});
    EXPECT_FALSE(entry.estimate.has_value());
    EXPECT_NE(entry.error.find("gene 'g1' [std::invalid_argument]"), std::string::npos)
        << entry.error;
}

}  // namespace
}  // namespace cellsync
