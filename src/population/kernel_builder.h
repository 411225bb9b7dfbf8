// Builder for the integral-transform kernel Q(phi, t) of paper Eq 3.
//
// Q(phi, t) is the fractional volume density: the fraction of total
// population volume at experiment time t residing near phase phi. The
// paper evaluates it by simulation; this builder runs the agent-based
// population simulator, collects volume-weighted phase histograms at the
// requested times, and packages them as a discretized kernel usable both
// forwards (generating population data from a known single-cell profile)
// and backwards (assembling the deconvolution's kernel matrix).
//
// A build is split by founders into a fixed number of chunks
// (Kernel_build), so a scheduler can spread one build over its workers;
// the chunk count is a constant, which makes the kernel's bits a
// function of the inputs alone.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "numerics/matrix.h"
#include "population/phase_distribution.h"
#include "population/population_simulator.h"
#include "spline/basis.h"

namespace cellsync {

/// Discretized kernel: row m holds Q(phi, times[m]) sampled at the phase
/// bin centers; every row integrates to 1 over phi.
class Kernel_grid {
  public:
    /// Direct construction from precomputed slices (used by tests and by
    /// deserialization); validates shapes and row normalization. Rows whose
    /// mass drifts from 1 within a tolerance scaled to the bin count are
    /// renormalized in place; genuinely non-normalizable rows (mass <= 0 or
    /// beyond the tolerance) throw std::invalid_argument. Rows already at
    /// unit mass are left bit-identical, so a kernel_io round trip is
    /// exact.
    Kernel_grid(Vector times, Vector phi_centers, Matrix q);

    const Vector& times() const { return times_; }
    const Vector& phi_centers() const { return phi_centers_; }
    const Matrix& q() const { return q_; }
    double bin_width() const { return bin_width_; }
    std::size_t time_count() const { return times_.size(); }
    std::size_t bin_count() const { return phi_centers_.size(); }

    /// Forward transform of an arbitrary profile:
    /// G(t_m) = integral Q(phi, t_m) f(phi) dphi, by midpoint quadrature on
    /// the phase bins.
    Vector apply(const std::function<double(double)>& f) const;

    /// Forward transform of a sampled profile (values at phi_centers).
    Vector apply_sampled(const Vector& f_values) const;

    /// Kernel matrix K with K(m, i) = integral Q(phi, t_m) psi_i(phi) dphi
    /// for the given basis (the linear map from basis coefficients to
    /// model-predicted measurements Ghat, paper Eq 5).
    Matrix basis_matrix(const Basis& basis) const;

  private:
    Vector times_;
    Vector phi_centers_;
    Matrix q_;  // time_count x bin_count
    double bin_width_ = 0.0;
};

/// Monte-Carlo kernel construction parameters.
struct Kernel_build_options {
    std::size_t n_cells = 100000;  ///< initial population size
    std::size_t n_bins = 200;      ///< phase resolution of the kernel
    std::uint64_t seed = 20110605; ///< simulator seed
};

/// One Monte-Carlo kernel build, split into chunk_count() founder
/// chunks. Chunk k simulates founders [k n / C, (k + 1) n / C) of the
/// n-founder population, each keeping its key mix_seed(seed, i), through
/// every time into its own per-time histograms; finish() merges them in
/// chunk order and normalizes. Between them the chunks hold exactly the
/// cells of the whole population, so only the order of each bin's sum
/// depends on the split, and the split is a constant: the kernel is a
/// function of the inputs alone, whichever threads ran the chunks and in
/// whatever order.
class Kernel_build {
  public:
    /// Founder chunks per build. A constant of the kernel's definition
    /// (it fixes each bin's summation order, so the cache key records
    /// it), never derived from a thread count.
    static constexpr std::size_t chunk_count() { return 32; }

    /// Validate the inputs (the build_kernel rules). `volume_model` is
    /// borrowed until the last run_chunk call returns.
    Kernel_build(const Cell_cycle_config& config, const Volume_model& volume_model,
                 Vector times, const Kernel_build_options& options);

    /// Simulate chunk k < chunk_count() through every time. Safe to call
    /// concurrently for distinct k; each chunk runs once (std::logic_error
    /// for a repeat, std::out_of_range for k >= chunk_count()). A chunk
    /// with no founders (n_cells < chunk_count()) adds nothing.
    void run_chunk(std::size_t k);

    /// Sum the chunks' histograms in chunk order, normalize each time's
    /// row, and package the kernel. Throws std::logic_error unless every
    /// chunk has run.
    Kernel_grid finish() const;

  private:
    Cell_cycle_config config_;
    const Volume_model* volume_model_;
    Vector times_;
    Kernel_build_options options_;
    /// chunk -> one histogram per time; empty until that chunk runs.
    std::vector<std::vector<Phase_histogram>> chunks_;
};

/// Build Q(phi, t) at the given measurement times (minutes, ascending,
/// starting at >= 0) by simulating the configured population: a
/// Kernel_build with every chunk run in order on the calling thread.
/// Throws std::invalid_argument for empty/descending times or zero
/// cells/bins.
Kernel_grid build_kernel(const Cell_cycle_config& config, const Volume_model& volume_model,
                         const Vector& times, const Kernel_build_options& options = {});

}  // namespace cellsync
