#include "biology/volume_model.h"

#include <algorithm>
#include <stdexcept>

namespace cellsync {

void throw_invalid_phi_sst() {
    throw std::invalid_argument("Volume_model: phi_sst must lie in (0, 1)");
}

double Smooth_volume_model::derivative(double phi, double phi_sst) const {
    check_phi_sst(phi_sst);
    phi = std::clamp(phi, 0.0, 1.0);
    const double s = phi_sst;
    if (phi < s) {
        const double a1 = 0.4 / (1.0 - s);
        const double a2 = (0.6 - 1.8 * s) / ((1.0 - s) * s * s);
        const double a3 = (1.2 * s - 0.4) / ((1.0 - s) * s * s * s);
        return a1 + 2.0 * a2 * phi + 3.0 * a3 * phi * phi;
    }
    return 0.4 / (1.0 - s);
}

double Linear_volume_model::derivative(double phi, double phi_sst) const {
    check_phi_sst(phi_sst);
    phi = std::clamp(phi, 0.0, 1.0);
    return phi < phi_sst ? 0.2 / phi_sst : 0.4 / (1.0 - phi_sst);
}

double growth_rate_beta(double phi_sst) {
    check_phi_sst(phi_sst);
    return 0.4 / (1.0 - phi_sst);
}

}  // namespace cellsync
