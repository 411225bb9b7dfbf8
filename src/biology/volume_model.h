// Cell-volume models v_k(phi) (paper Secs 2.2 and 3.1).
//
// The integration kernel Q(phi, t) weights each cell by its volume, so the
// volume model directly shapes the transform being inverted. Two models
// are provided:
//
//  * Smooth_volume_model — the 2011 update (paper Eq 11): cubic on the SW
//    stage, linear on the ST stage, satisfying the 40/60 division split
//      v(0) = 0.4 V0,  v(phi_sst) = 0.6 V0,  v(1) = V0          (Eqs 6-8)
//    and growth-rate continuity across division
//      v'(0) = v'(phi_sst) = v'(1)                              (Eqs 9-10)
//
//  * Linear_volume_model — the 2009 baseline: piecewise linear through the
//    same three anchor points, without the rate constraints. Kept for the
//    volume-model ablation.
//
// Volumes are expressed relative to V0 (the pre-division volume), which
// cancels in the normalized kernel.
#pragma once

#include <algorithm>
#include <memory>
#include <string>

namespace cellsync {

/// Interface for v(phi; phi_sst) / V0.
class Volume_model {
  public:
    virtual ~Volume_model() = default;

    /// Relative volume at phase phi for a cell with transition phase
    /// phi_sst. phi is clamped to [0, 1]; phi_sst must lie in (0, 1) or
    /// std::invalid_argument is thrown.
    virtual double relative_volume(double phi, double phi_sst) const = 0;

    /// d(relative volume)/d(phi).
    virtual double derivative(double phi, double phi_sst) const = 0;

    /// Human-readable model name for reports.
    virtual std::string name() const = 0;
};

/// Throws std::invalid_argument naming phi_sst's (0, 1) range.
[[noreturn]] void throw_invalid_phi_sst();

/// Throws std::invalid_argument unless phi_sst lies in (0, 1).
inline void check_phi_sst(double phi_sst) {
    if (!(phi_sst > 0.0 && phi_sst < 1.0)) throw_invalid_phi_sst();
}

// The two models below are final and define relative_volume in the
// header, so a loop templated on the concrete model (the kernel
// builder's per-cell histogram visit) inlines it instead of making a
// virtual call per cell.

/// 2011 smooth model (paper Eq 11).
class Smooth_volume_model final : public Volume_model {
  public:
    double relative_volume(double phi, double phi_sst) const override {
        check_phi_sst(phi_sst);
        phi = std::clamp(phi, 0.0, 1.0);
        const double s = phi_sst;
        if (phi < s) {
            // Cubic piece of Eq 11: 0.4 + a1 phi + a2 phi^2 + a3 phi^3.
            const double a1 = 0.4 / (1.0 - s);
            const double a2 = (0.6 - 1.8 * s) / ((1.0 - s) * s * s);
            const double a3 = (1.2 * s - 0.4) / ((1.0 - s) * s * s * s);
            return 0.4 + a1 * phi + a2 * phi * phi + a3 * phi * phi * phi;
        }
        // Linear piece: 1 - 0.4/(1-s) + 0.4 phi/(1-s).
        return 1.0 - 0.4 / (1.0 - s) + 0.4 * phi / (1.0 - s);
    }
    double derivative(double phi, double phi_sst) const override;
    std::string name() const override { return "smooth-2011"; }
};

/// 2009 piecewise-linear baseline.
class Linear_volume_model final : public Volume_model {
  public:
    double relative_volume(double phi, double phi_sst) const override {
        check_phi_sst(phi_sst);
        phi = std::clamp(phi, 0.0, 1.0);
        if (phi < phi_sst) {
            // 0.4 -> 0.6 linearly across the SW stage.
            return 0.4 + 0.2 * phi / phi_sst;
        }
        // 0.6 -> 1.0 linearly across the ST stage.
        return 0.6 + 0.4 * (phi - phi_sst) / (1.0 - phi_sst);
    }
    double derivative(double phi, double phi_sst) const override;
    std::string name() const override { return "linear-2009"; }
};

/// beta(phi_sst) = v'(1)/V0 = 0.4 / (1 - phi_sst): the pre-division
/// relative growth rate entering the transcription-rate-continuity
/// constraint (paper Eq 12). Throws std::invalid_argument for
/// phi_sst outside (0, 1).
double growth_rate_beta(double phi_sst);

/// Fraction of the mother's volume inherited by the SW daughter (40%,
/// Thanbichler & Shapiro 2006).
constexpr double swarmer_volume_fraction = 0.4;

/// Fraction inherited by the ST daughter (60%).
constexpr double stalked_volume_fraction = 0.6;

}  // namespace cellsync
