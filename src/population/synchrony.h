// Synchrony metrics for a population snapshot.
//
// Quantifies how far a population has drifted from synchrony — the decay
// these metrics show over experiment time is exactly the asynchronous
// variability the deconvolution removes in silico.
#pragma once

#include <vector>

#include "numerics/vector_ops.h"
#include "population/population_simulator.h"

namespace cellsync {

/// Kuramoto-style circular order parameter r = |mean(exp(2 pi i phi))|.
/// r = 1 for a perfectly synchronized population, -> 0 for phases spread
/// uniformly. Throws std::invalid_argument on an empty snapshot.
double phase_order_parameter(const std::vector<Snapshot_entry>& snapshot);

/// Normalized Shannon entropy of the phase histogram (`bins` bins):
/// 0 when all mass is in one bin, 1 for the uniform distribution.
/// Throws std::invalid_argument on an empty snapshot or zero bins.
double phase_entropy(const std::vector<Snapshot_entry>& snapshot, std::size_t bins = 50);

// -- profile-level variants -------------------------------------------------
//
// The experiment runner scores reconstructed single-cell profiles f(phi)
// with the same two metrics: the profile, clamped at zero and normalized
// to unit mass, is treated as the phase density of the expression it
// represents. A sharply cell-cycle-regulated gene scores r -> 1 / entropy
// -> 0; a constitutive (flat) gene scores r -> 0 / entropy -> 1.

/// Order parameter r = |sum_b p_b exp(2 pi i phi_b)| of a sampled profile
/// (values at `phi`, negatives clamped to 0, normalized to probabilities).
/// Throws std::invalid_argument on empty/mismatched inputs or when the
/// clamped profile has no positive mass.
double profile_order_parameter(const Vector& phi, const Vector& values);

/// A phase grid's points on the unit circle, (cos 2 pi phi, sin 2 pi phi):
/// computed once to score many profiles sampled on the same grid.
struct Phase_circle {
    Vector cos_phi;
    Vector sin_phi;
};
Phase_circle phase_circle(const Vector& phi);

/// profile_order_parameter on a precomputed grid: the same value, bit for
/// bit, without re-evaluating the trigonometry.
double circle_order_parameter(const Phase_circle& circle, const Vector& values);

/// Normalized Shannon entropy of a sampled profile's probability vector:
/// 0 when all mass is at one sample, 1 for a flat profile. Same
/// preconditions as profile_order_parameter (needs >= 2 samples).
double profile_entropy(const Vector& values);

}  // namespace cellsync
