#include "population/kernel_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "population/phase_distribution.h"
#include "spline/spline_basis.h"

namespace cellsync {
namespace {

Kernel_build_options small_options() {
    Kernel_build_options o;
    o.n_cells = 20000;
    o.n_bins = 100;
    o.seed = 31;
    return o;
}

TEST(KernelGrid, ConstructorValidatesShapes) {
    const Vector times{0.0, 10.0};
    const Vector centers{0.25, 0.75};
    Matrix q(2, 2, 1.0);  // each row: density 1 everywhere = integrates to 1
    EXPECT_NO_THROW(Kernel_grid(times, centers, q));
    EXPECT_THROW(Kernel_grid({}, centers, q), std::invalid_argument);
    EXPECT_THROW(Kernel_grid(times, centers, Matrix(3, 2, 1.0)), std::invalid_argument);
    // Row not integrating to 1:
    Matrix bad(2, 2, 2.0);
    EXPECT_THROW(Kernel_grid(times, centers, bad), std::invalid_argument);
    // Negative density:
    Matrix neg(2, 2, 1.0);
    neg(0, 0) = -1.0;
    neg(0, 1) = 3.0;
    EXPECT_THROW(Kernel_grid(times, centers, neg), std::invalid_argument);
}

TEST(KernelGrid, SmallRowMassDriftIsRenormalizedNotRejected) {
    // Regression: a fixed 1e-6 row-mass gate rejected valid high-resolution
    // kernels whose summation rounding scales with n_bins. A uniform row
    // carrying a 5e-6 relative drift at 8000 bins is within the scaled
    // tolerance (1e-9 * n_bins = 8e-6) and must be renormalized, not thrown.
    const std::size_t bins = 8000;
    Vector centers(bins);
    for (std::size_t b = 0; b < bins; ++b) {
        centers[b] = (static_cast<double>(b) + 0.5) / static_cast<double>(bins);
    }
    const double drift = 1.0 + 5e-6;
    Matrix q(2, bins, drift);  // each row mass = 1 + 5e-6
    const Kernel_grid k({0.0, 10.0}, centers, q);
    for (std::size_t m = 0; m < 2; ++m) {
        double mass = 0.0;
        for (std::size_t b = 0; b < bins; ++b) mass += k.q()(m, b) * k.bin_width();
        EXPECT_NEAR(mass, 1.0, 1e-12) << "row " << m << " not renormalized";
    }
}

TEST(KernelGrid, GenuinelyNonNormalizableRowsStillHardError) {
    const Vector times{0.0, 10.0};
    const Vector centers{0.25, 0.75};
    // Mass far from 1.
    EXPECT_THROW(Kernel_grid(times, centers, Matrix(2, 2, 1.5)), std::invalid_argument);
    // Zero mass cannot be renormalized.
    EXPECT_THROW(Kernel_grid(times, centers, Matrix(2, 2, 0.0)), std::invalid_argument);
}

TEST(KernelGrid, ExactRowsSurviveRoundTripBitIdentically) {
    // Rows already at unit mass within the rounding floor must not be
    // touched: renormalizing them would perturb entries by an ulp-scale
    // factor and break serialize/load bit-identity.
    const std::size_t bins = 50;
    Vector centers(bins);
    Vector row(bins);
    double mass = 0.0;
    for (std::size_t b = 0; b < bins; ++b) {
        centers[b] = (static_cast<double>(b) + 0.5) / static_cast<double>(bins);
        row[b] = 1.0 + 0.5 * std::sin(2.0 * 3.141592653589793 * centers[b]);
        mass += row[b] / static_cast<double>(bins);
    }
    for (std::size_t b = 0; b < bins; ++b) row[b] /= mass;  // normalize once
    Matrix q(1, bins);
    q.set_row(0, row);
    const Kernel_grid first({0.0}, centers, q);
    const Kernel_grid second({0.0}, first.phi_centers(), first.q());
    for (std::size_t b = 0; b < bins; ++b) {
        EXPECT_EQ(first.q()(0, b), second.q()(0, b)) << "bin " << b;
    }
}

TEST(BuildKernel, RowsIntegrateToOneAtAllTimes) {
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Kernel_grid k = build_kernel(config, vm, linspace(0.0, 180.0, 13), small_options());
    EXPECT_EQ(k.time_count(), 13u);
    EXPECT_EQ(k.bin_count(), 100u);
    for (std::size_t m = 0; m < k.time_count(); ++m) {
        double mass = 0.0;
        for (std::size_t b = 0; b < k.bin_count(); ++b) mass += k.q()(m, b) * k.bin_width();
        EXPECT_NEAR(mass, 1.0, 1e-9) << "time " << k.times()[m];
    }
}

TEST(BuildKernel, InitialKernelConcentratedInSwarmerStage) {
    // At t=0 a synchronized culture has all cells below their phi_sst
    // (~0.15), so virtually all kernel mass sits at low phase.
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Kernel_grid k = build_kernel(config, vm, {0.0, 75.0}, small_options());
    double low_mass = 0.0;
    for (std::size_t b = 0; b < k.bin_count(); ++b) {
        if (k.phi_centers()[b] < 0.25) low_mass += k.q()(0, b) * k.bin_width();
    }
    EXPECT_GT(low_mass, 0.99);
}

TEST(BuildKernel, KernelSpreadsWithTime) {
    // Asynchrony grows: the phase spread at 150 min far exceeds t=0.
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Kernel_grid k = build_kernel(config, vm, {0.0, 150.0}, small_options());
    auto spread = [&](std::size_t row) {
        double mean_phi = 0.0;
        for (std::size_t b = 0; b < k.bin_count(); ++b) {
            mean_phi += k.phi_centers()[b] * k.q()(row, b) * k.bin_width();
        }
        double var = 0.0;
        for (std::size_t b = 0; b < k.bin_count(); ++b) {
            const double d = k.phi_centers()[b] - mean_phi;
            var += d * d * k.q()(row, b) * k.bin_width();
        }
        return std::sqrt(var);
    };
    EXPECT_GT(spread(1), 3.0 * spread(0));
}

TEST(BuildKernel, ConstantProfileIsFixedPoint) {
    // G(t) = integral Q * c = c at every time: deconvolution's sanity
    // anchor (concentration is volume-normalized).
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Kernel_grid k = build_kernel(config, vm, linspace(0.0, 180.0, 7), small_options());
    const Vector g = k.apply([](double) { return 3.7; });
    for (double v : g) EXPECT_NEAR(v, 3.7, 1e-9);
}

TEST(BuildKernel, ApplySampledMatchesApply) {
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Kernel_grid k = build_kernel(config, vm, {0.0, 60.0}, small_options());
    const auto f = [](double phi) { return 1.0 + phi * phi; };
    Vector fv(k.bin_count());
    for (std::size_t b = 0; b < k.bin_count(); ++b) fv[b] = f(k.phi_centers()[b]);
    const Vector g1 = k.apply(f);
    const Vector g2 = k.apply_sampled(fv);
    for (std::size_t m = 0; m < g1.size(); ++m) EXPECT_DOUBLE_EQ(g1[m], g2[m]);
    EXPECT_THROW(k.apply_sampled(Vector(3, 1.0)), std::invalid_argument);
}

TEST(BuildKernel, BasisMatrixConsistentWithApply) {
    // K alpha must equal apply(f_alpha) for any coefficients.
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Kernel_grid k = build_kernel(config, vm, linspace(0.0, 120.0, 5), small_options());
    const auto basis = Natural_spline_basis(8);
    const Matrix km = k.basis_matrix(basis);
    EXPECT_EQ(km.rows(), 5u);
    EXPECT_EQ(km.cols(), 8u);
    Vector alpha(8);
    for (std::size_t i = 0; i < 8; ++i) alpha[i] = 1.0 + std::sin(static_cast<double>(i));
    const Vector via_matrix = km * alpha;
    const Vector via_apply = k.apply([&](double phi) { return basis.expand(alpha, phi); });
    for (std::size_t m = 0; m < 5; ++m) EXPECT_NEAR(via_matrix[m], via_apply[m], 1e-10);
}

TEST(BuildKernel, DeterministicGivenSeed) {
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Kernel_grid a = build_kernel(config, vm, {0.0, 90.0}, small_options());
    const Kernel_grid b = build_kernel(config, vm, {0.0, 90.0}, small_options());
    for (std::size_t m = 0; m < a.time_count(); ++m) {
        for (std::size_t c = 0; c < a.bin_count(); ++c) {
            EXPECT_DOUBLE_EQ(a.q()(m, c), b.q()(m, c));
        }
    }
}

/// The oracle: the single-population build that founder chunks replaced.
/// One simulator holds all n_cells founders, and each time's histogram
/// is filled during its division scan.
Kernel_grid single_population_kernel(const Cell_cycle_config& config,
                                     const Volume_model& volume_model, const Vector& times,
                                     const Kernel_build_options& options) {
    Population_simulator sim(config, options.n_cells, options.seed);
    Matrix q(times.size(), options.n_bins);
    Vector centers;
    for (std::size_t m = 0; m < times.size(); ++m) {
        Phase_histogram histogram(options.n_bins);
        sim.advance_to(times[m], [&](const Simulated_cell& cell) {
            const double phi = cell.phase_at(times[m]);
            histogram.add(phi, volume_model.relative_volume(phi, cell.params.phi_sst));
        });
        Phase_density d = histogram.density();
        q.set_row(m, d.density);
        if (m == 0) centers = std::move(d.bin_centers);
    }
    return Kernel_grid(times, centers, std::move(q));
}

/// Largest per-entry |a - b| / |b| (entries equal to 0 in both count 0).
double max_relative_difference(const Kernel_grid& a, const Kernel_grid& b) {
    double worst = 0.0;
    for (std::size_t i = 0; i < a.q().data().size(); ++i) {
        const double x = a.q().data()[i];
        const double y = b.q().data()[i];
        if (x == y) continue;
        worst = std::max(worst, std::abs(x - y) / std::abs(y));
    }
    return worst;
}

TEST(BuildKernel, OracleHistogramMatchesSnapshotDensityBitwise) {
    // The oracle histograms live cells during the division scan; it gives
    // exactly the rows phase_volume_density gives on the materialized
    // snapshot.
    const Vector times{0.0, 37.5, 90.0, 151.0, 240.0};
    const Kernel_build_options options = small_options();
    Cell_cycle_config config;
    config.initial_mode = Initial_phase_mode::stationary;
    const Smooth_volume_model smooth;
    const Linear_volume_model linear;
    for (const Volume_model* vm : {static_cast<const Volume_model*>(&smooth),
                                   static_cast<const Volume_model*>(&linear)}) {
        const Kernel_grid fused = single_population_kernel(config, *vm, times, options);
        Population_simulator sim(config, options.n_cells, options.seed);
        Matrix q(times.size(), options.n_bins);
        Vector centers;
        for (std::size_t m = 0; m < times.size(); ++m) {
            sim.advance_to(times[m]);
            const Phase_density d = phase_volume_density(sim.snapshot(*vm), options.n_bins);
            q.set_row(m, d.density);
            centers = d.bin_centers;
        }
        const Kernel_grid via_snapshot(times, centers, std::move(q));
        EXPECT_EQ(fused.phi_centers(), via_snapshot.phi_centers());
        EXPECT_EQ(fused.q().data(), via_snapshot.q().data()) << vm->name();
    }
}

TEST(BuildKernel, ChunkedBuildMatchesSinglePopulationOracle) {
    // The chunks hold exactly the oracle's cells, so only each bin's
    // summation order differs: every entry agrees to rounding, for both
    // volume models and all three initial-phase modes.
    const Vector times{0.0, 37.5, 90.0, 151.0, 240.0};
    const Smooth_volume_model smooth;
    const Linear_volume_model linear;
    for (const Initial_phase_mode mode :
         {Initial_phase_mode::synchronized_swarmers, Initial_phase_mode::all_at_zero,
          Initial_phase_mode::stationary}) {
        Cell_cycle_config config;
        config.initial_mode = mode;
        for (const Volume_model* vm : {static_cast<const Volume_model*>(&smooth),
                                       static_cast<const Volume_model*>(&linear)}) {
            const Kernel_grid chunked = build_kernel(config, *vm, times, small_options());
            const Kernel_grid oracle =
                single_population_kernel(config, *vm, times, small_options());
            EXPECT_EQ(chunked.phi_centers(), oracle.phi_centers());
            EXPECT_LE(max_relative_difference(chunked, oracle), 1e-12)
                << vm->name() << " mode " << static_cast<int>(mode);
        }
    }
}

TEST(BuildKernel, FewerCellsThanChunksLeavesEmptyChunks) {
    // n_cells < chunk_count(): most chunks hold no founder and add nothing.
    static_assert(Kernel_build::chunk_count() > 5);
    Kernel_build_options options = small_options();
    options.n_cells = 5;
    options.n_bins = 20;
    const Vector times{0.0, 60.0, 150.0};
    const Smooth_volume_model vm;
    const Kernel_grid chunked = build_kernel(Cell_cycle_config{}, vm, times, options);
    const Kernel_grid oracle = single_population_kernel(Cell_cycle_config{}, vm, times, options);
    EXPECT_LE(max_relative_difference(chunked, oracle), 1e-12);
    for (std::size_t m = 0; m < chunked.time_count(); ++m) {
        double mass = 0.0;
        for (std::size_t b = 0; b < chunked.bin_count(); ++b) {
            mass += chunked.q()(m, b) * chunked.bin_width();
        }
        EXPECT_NEAR(mass, 1.0, 1e-12) << "time " << times[m];
    }
}

TEST(KernelBuild, ChunkOrderAndThreadsDoNotChangeTheBits) {
    // Chunks run in reverse order, or spread over threads, merge in chunk
    // order in finish(): the kernel is build_kernel's, bit for bit.
    const Vector times{0.0, 45.0, 120.0};
    Cell_cycle_config config;
    config.initial_mode = Initial_phase_mode::stationary;
    const Linear_volume_model vm;
    const Kernel_grid serial = build_kernel(config, vm, times, small_options());

    Kernel_build reversed(config, vm, times, small_options());
    for (std::size_t k = Kernel_build::chunk_count(); k-- > 0;) reversed.run_chunk(k);
    EXPECT_EQ(reversed.finish().q().data(), serial.q().data());

    Kernel_build threaded(config, vm, times, small_options());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 3; ++t) {
        threads.emplace_back([&threaded, t] {
            for (std::size_t k = t; k < Kernel_build::chunk_count(); k += 3) {
                threaded.run_chunk(k);
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(threaded.finish().q().data(), serial.q().data());
}

TEST(KernelBuild, MisuseThrows) {
    const Smooth_volume_model vm;
    Kernel_build build(Cell_cycle_config{}, vm, {0.0, 30.0}, small_options());
    EXPECT_THROW(build.finish(), std::logic_error);
    EXPECT_THROW(build.run_chunk(Kernel_build::chunk_count()), std::out_of_range);
    build.run_chunk(0);
    EXPECT_THROW(build.run_chunk(0), std::logic_error);
    EXPECT_THROW(build.finish(), std::logic_error);
    EXPECT_THROW(Kernel_build(Cell_cycle_config{}, vm, {}, small_options()),
                 std::invalid_argument);
}

TEST(BuildKernel, ValidationErrors) {
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    EXPECT_THROW(build_kernel(config, vm, {}, small_options()), std::invalid_argument);
    EXPECT_THROW(build_kernel(config, vm, {-1.0, 10.0}, small_options()),
                 std::invalid_argument);
    EXPECT_THROW(build_kernel(config, vm, {10.0, 5.0}, small_options()),
                 std::invalid_argument);
    Kernel_build_options bad = small_options();
    bad.n_cells = 0;
    EXPECT_THROW(build_kernel(config, vm, {0.0, 10.0}, bad), std::invalid_argument);
    bad = small_options();
    bad.n_bins = 0;
    EXPECT_THROW(build_kernel(config, vm, {0.0, 10.0}, bad), std::invalid_argument);
}

TEST(BuildKernel, VolumeModelChangesKernel) {
    // The two models differ only on the swarmer stage [0, phi_sst), so
    // probe a time early enough that most cells are still swarmers.
    const Cell_cycle_config config;
    const Kernel_grid smooth =
        build_kernel(config, Smooth_volume_model{}, {6.0}, small_options());
    const Kernel_grid linear =
        build_kernel(config, Linear_volume_model{}, {6.0}, small_options());
    double diff = 0.0;
    for (std::size_t b = 0; b < smooth.bin_count(); ++b) {
        diff += std::abs(smooth.q()(0, b) - linear.q()(0, b)) * smooth.bin_width();
    }
    EXPECT_GT(diff, 1e-4);  // same cells, different volume weighting
}

}  // namespace
}  // namespace cellsync
