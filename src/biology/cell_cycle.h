// Cell-cycle phase model for Caulobacter crescentus (paper Sec 2.1).
//
// A cell's phase phi in [0,1] advances linearly in experiment time at rate
// 1/T_k (T_k = the cell's total cycle time). The SW->ST transition phase
// phi_sst_k is normally distributed across the population with mean 0.15
// (2011 update) and CV 0.13. At phi = 1 the cell divides into an SW
// daughter (phi = 0) and an ST daughter (phi = its own phi_sst).
#pragma once

#include "numerics/rng.h"

namespace cellsync {

/// How the initial population is distributed in phase at t = 0.
enum class Initial_phase_mode {
    synchronized_swarmers,  ///< phi_k(0) ~ Uniform(0, phi_sst_k): fresh SW isolate (paper default)
    all_at_zero,            ///< every cell starts exactly at phi = 0
    stationary,             ///< phases from the asynchronous steady-state age distribution
};

/// Population-level cell-cycle parameters.
///
/// Defaults reproduce the paper's Caulobacter model: mu_sst = 0.15 (updated
/// from 0.25), cv_sst = 0.13, mean cycle time 150 minutes. The cycle-time
/// CV is not stated in the DAC paper; 0.12 follows the companion model
/// (Siegal-Gaskins et al. 2009) and is configurable.
struct Cell_cycle_config {
    double mu_sst = 0.15;          ///< mean SW->ST transition phase
    double cv_sst = 0.13;          ///< CV of the transition phase
    double mean_cycle_minutes = 150.0;  ///< mean total cycle time T
    double cv_cycle = 0.12;        ///< CV of the cycle time
    Initial_phase_mode initial_mode = Initial_phase_mode::synchronized_swarmers;

    /// Validate ranges; throws std::invalid_argument with a description of
    /// the offending field.
    void validate() const;

    /// Standard deviation of the transition phase (mu_sst * cv_sst).
    double sigma_sst() const { return mu_sst * cv_sst; }

    /// Standard deviation of the cycle time.
    double sigma_cycle() const { return mean_cycle_minutes * cv_cycle; }
};

/// Per-cell parameters theta_k = {phi_sst_k, T_k} (paper Sec 2.2).
struct Cell_parameters {
    double phi_sst = 0.15;        ///< this cell's SW->ST transition phase
    double cycle_minutes = 150.0; ///< this cell's total cycle time T_k
};

/// Draw per-cell parameters from the population distributions, using the
/// cell's own stream. Draws are truncated to biologically sane windows
/// (phi_sst in [0.01, 0.95], T in [0.2, 3] x mean) to exclude impossible
/// cells from the simulation. One polar normal pair gives both values; a
/// pair is redrawn until both land in their windows, which keeps them
/// independent truncated normals (the window is a product set). The
/// config is not re-validated here: callers validate it once.
Cell_parameters draw_cell_parameters(const Cell_cycle_config& config, Counter_stream& stream);

/// Draw an initial phase for a cell according to the configured mode.
double draw_initial_phase(const Cell_cycle_config& config, const Cell_parameters& params,
                          Counter_stream& stream);

/// Phase of a (non-dividing) cell at time t given its phase at time 0:
/// phi(t) = phi0 + t / T. The caller handles division when the result
/// crosses 1.
double advance_phase(double phi0, double t_minutes, const Cell_parameters& params);

}  // namespace cellsync
