#include "population/phase_distribution.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace cellsync {

double Phase_density::mass() const {
    return sum(density) * bin_width;
}

void Phase_density::resultant(double& re, double& im) const {
    re = 0.0;
    im = 0.0;
    for (std::size_t i = 0; i < bin_centers.size(); ++i) {
        const double a = 2.0 * std::numbers::pi * bin_centers[i];
        const double w = density[i] * bin_width;
        re += w * std::cos(a);
        im += w * std::sin(a);
    }
}

double Phase_density::mean_phase() const {
    // Phase is circular: a linear first moment of a density clustered
    // around the wrap point phi ~ 0/1 lands near 0.5 even though the
    // population is tightly synchronized there. Use the resultant-angle
    // (circular) mean instead, mapped back to [0, 1).
    double re = 0.0, im = 0.0;
    resultant(re, im);
    double angle = std::atan2(im, re) / (2.0 * std::numbers::pi);
    if (angle < 0.0) angle += 1.0;
    if (angle >= 1.0) angle -= 1.0;  // guard the rounding case atan2 -> 2 pi
    return angle;
}

double Phase_density::resultant_length() const {
    double re = 0.0, im = 0.0;
    resultant(re, im);
    return std::sqrt(re * re + im * im);
}

Phase_histogram::Phase_histogram(std::size_t bins) : weights_(bins, 0.0) {
    if (bins == 0) throw std::invalid_argument("phase density: bins must be positive");
    scale_ = static_cast<double>(bins);
}

void Phase_histogram::merge(const Phase_histogram& other) {
    if (other.weights_.size() != weights_.size()) {
        throw std::invalid_argument("Phase_histogram::merge: bin count mismatch");
    }
    for (std::size_t b = 0; b < weights_.size(); ++b) weights_[b] += other.weights_[b];
    total_ += other.total_;
}

Phase_density Phase_histogram::density() const {
    if (total_ <= 0.0) throw std::invalid_argument("phase density: non-positive total weight");
    const std::size_t bins = weights_.size();
    Phase_density d;
    d.bin_width = 1.0 / static_cast<double>(bins);
    d.bin_centers.resize(bins);
    for (std::size_t b = 0; b < bins; ++b) {
        d.bin_centers[b] = (static_cast<double>(b) + 0.5) * d.bin_width;
    }
    d.density = weights_;
    for (double& v : d.density) v /= total_ * d.bin_width;
    return d;
}

namespace {

Phase_density weighted_density(const std::vector<Snapshot_entry>& snapshot, std::size_t bins,
                               bool volume_weighted) {
    Phase_histogram histogram(bins);
    if (snapshot.empty()) throw std::invalid_argument("phase density: empty snapshot");
    for (const Snapshot_entry& e : snapshot) {
        histogram.add(e.phi, volume_weighted ? e.relative_volume : 1.0);
    }
    return histogram.density();
}

}  // namespace

Phase_density phase_number_density(const std::vector<Snapshot_entry>& snapshot,
                                   std::size_t bins) {
    return weighted_density(snapshot, bins, false);
}

Phase_density phase_volume_density(const std::vector<Snapshot_entry>& snapshot,
                                   std::size_t bins) {
    return weighted_density(snapshot, bins, true);
}

}  // namespace cellsync
