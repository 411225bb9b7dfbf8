#include "biology/cell_cycle.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cellsync {

void Cell_cycle_config::validate() const {
    if (!(mu_sst > 0.0 && mu_sst < 1.0)) {
        throw std::invalid_argument("Cell_cycle_config: mu_sst must lie in (0, 1)");
    }
    if (!(cv_sst >= 0.0 && cv_sst < 1.0)) {
        throw std::invalid_argument("Cell_cycle_config: cv_sst must lie in [0, 1)");
    }
    if (!(mean_cycle_minutes > 0.0)) {
        throw std::invalid_argument("Cell_cycle_config: mean_cycle_minutes must be positive");
    }
    if (!(cv_cycle >= 0.0 && cv_cycle < 1.0)) {
        throw std::invalid_argument("Cell_cycle_config: cv_cycle must lie in [0, 1)");
    }
}

Cell_parameters draw_cell_parameters(const Cell_cycle_config& config, Counter_stream& stream) {
    const double sst_lo = 0.01, sst_hi = 0.95;
    const double cycle_lo = 0.2 * config.mean_cycle_minutes;
    const double cycle_hi = 3.0 * config.mean_cycle_minutes;
    const double sigma_sst = config.sigma_sst();
    const double sigma_cycle = config.sigma_cycle();
    // A zero-spread coordinate is the clamped mean, as in
    // Rng::truncated_normal; it never causes a rejection.
    const double fixed_sst = std::clamp(config.mu_sst, sst_lo, sst_hi);
    const double fixed_cycle = std::clamp(config.mean_cycle_minutes, cycle_lo, cycle_hi);
    Cell_parameters p;
    bool sst_ok = false, cycle_ok = false;
    for (int attempt = 0; attempt < 10000; ++attempt) {
        double z_sst = 0.0, z_cycle = 0.0;
        stream.normal_pair(z_sst, z_cycle);
        p.phi_sst = sigma_sst > 0.0 ? config.mu_sst + sigma_sst * z_sst : fixed_sst;
        p.cycle_minutes =
            sigma_cycle > 0.0 ? config.mean_cycle_minutes + sigma_cycle * z_cycle : fixed_cycle;
        sst_ok = p.phi_sst >= sst_lo && p.phi_sst <= sst_hi;
        cycle_ok = p.cycle_minutes >= cycle_lo && p.cycle_minutes <= cycle_hi;
        if (sst_ok && cycle_ok) return p;
    }
    // Pathological windows (far out in a tail): clamp what never landed.
    if (!sst_ok) p.phi_sst = fixed_sst;
    if (!cycle_ok) p.cycle_minutes = fixed_cycle;
    return p;
}

double draw_initial_phase(const Cell_cycle_config& config, const Cell_parameters& params,
                          Counter_stream& stream) {
    switch (config.initial_mode) {
        case Initial_phase_mode::all_at_zero:
            return 0.0;
        case Initial_phase_mode::synchronized_swarmers:
            // A fresh swarmer isolate: every cell is somewhere in its SW
            // stage, uniformly (Evinger & Agabian; paper Sec 2.1).
            return stream.uniform() * params.phi_sst;
        case Initial_phase_mode::stationary: {
            // Steady-state age distribution of an exponentially growing
            // population: density 2 ln(2) 2^{-phi}; sample by inversion.
            const double u = stream.uniform();
            return -std::log2(1.0 - u * 0.5);
        }
    }
    throw std::invalid_argument("draw_initial_phase: unknown initial mode");
}

double advance_phase(double phi0, double t_minutes, const Cell_parameters& params) {
    if (params.cycle_minutes <= 0.0) {
        throw std::invalid_argument("advance_phase: cycle time must be positive");
    }
    return phi0 + t_minutes / params.cycle_minutes;
}

}  // namespace cellsync
