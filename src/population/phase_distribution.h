// Phase-distribution estimators over population snapshots.
//
// Histograms of cell phase, either number-weighted (the classic phase
// distribution) or volume-weighted (the Q(phi, t) kernel slice of paper
// Eq 3), normalized to integrate to one over phi in [0, 1].
#pragma once

#include <algorithm>
#include <vector>

#include "numerics/vector_ops.h"
#include "population/population_simulator.h"

namespace cellsync {

/// A density sampled at bin centers on [0, 1]; sum(density) * bin_width = 1
/// for non-empty snapshots.
struct Phase_density {
    Vector bin_centers;
    Vector density;
    double bin_width = 0.0;

    /// Integral of the density over [0,1] (== 1 up to rounding).
    double mass() const;

    /// Circular (resultant-angle) mean phase under this density, in
    /// [0, 1). Phase is periodic, so the mean of a density clustered
    /// around the wrap point phi ~ 0/1 is near 0 (not the 0.5 a linear
    /// first moment would report). The direction is meaningful only when
    /// resultant_length() is away from 0; for a (near-)uniform density the
    /// resultant vanishes and the returned angle is numerical noise.
    double mean_phase() const;

    /// Length of the circular resultant |integral e^{2 pi i phi} rho dphi|
    /// in [0, 1]: 1 for a point mass, 0 for the uniform density. This is
    /// the density-level analogue of the population order parameter.
    double resultant_length() const;

  private:
    /// Shared resultant-vector accumulation.
    void resultant(double& re, double& im) const;
};

/// Streaming weighted phase histogram: the one binning and normalization
/// rule behind phase_number_density, phase_volume_density and the kernel
/// builder, which feeds live cells straight in instead of materializing a
/// snapshot. Phases are clamped to [0, 1]; phi exactly 1 lands in the
/// last bin.
class Phase_histogram {
  public:
    /// Throws std::invalid_argument for zero bins.
    explicit Phase_histogram(std::size_t bins);

    /// Add one cell at phase `phi` with weight `weight`.
    void add(double phi, double weight) {
        const double clamped = std::clamp(phi, 0.0, 1.0);
        auto b = static_cast<std::size_t>(clamped * scale_);
        if (b >= weights_.size()) b = weights_.size() - 1;
        weights_[b] += weight;
        total_ += weight;
    }

    /// Add every bin and the total of `other`, which must have the same
    /// bin count (std::invalid_argument otherwise): the histograms of
    /// disjoint cell sets merge into their union's, up to the order of
    /// each bin's sum.
    void merge(const Phase_histogram& other);

    /// The normalized density of everything added so far. Throws
    /// std::invalid_argument for a non-positive total weight.
    Phase_density density() const;

  private:
    Vector weights_;
    double scale_ = 0.0;  ///< bins as a double
    double total_ = 0.0;
};

/// Number-weighted phase density. Throws std::invalid_argument for zero
/// bins or an empty snapshot.
Phase_density phase_number_density(const std::vector<Snapshot_entry>& snapshot,
                                   std::size_t bins);

/// Volume-weighted phase density: each cell contributes its relative
/// volume. This is the Monte-Carlo estimate of Q(phi, t) at the snapshot's
/// time. Throws std::invalid_argument for zero bins, an empty snapshot, or
/// non-positive total volume.
Phase_density phase_volume_density(const std::vector<Snapshot_entry>& snapshot,
                                   std::size_t bins);

}  // namespace cellsync
