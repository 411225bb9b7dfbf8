// Agent-based simulation of an asynchronously growing cell population
// (paper Sec 2.1).
//
// Each cell advances through phase at rate 1/T_k; when it reaches phi = 1
// it is replaced by an SW daughter (phi = 0) and an ST daughter (phi =
// its freshly drawn phi_sst). Snapshots of (phi, phi_sst, volume) feed the
// phase-distribution estimators; the kernel builder histograms cells()
// directly.
//
// Every cell draws from its own Counter_stream. Founder i is keyed
// mix_seed(seed, i); a mother keyed K has daughters keyed
// Counter_stream::child_key(K, 0) (SW) and child_key(K, 1) (ST). A cell's
// parameters are therefore a pure function of the seed and its lineage:
// they do not depend on the order divisions are processed in or on the
// advance_to() schedule, and given a seed runs are bit-for-bit
// reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "biology/cell_cycle.h"
#include "biology/volume_model.h"

namespace cellsync {

/// One simulated cell, stored by its birth record; the phase at any time
/// follows from phi = birth_phase + (t - birth_time) / T.
struct Simulated_cell {
    double birth_time = 0.0;   ///< experiment time the cell appeared (minutes)
    double birth_phase = 0.0;  ///< phase at birth (0 for SW, phi_sst for ST daughters)
    Cell_parameters params;    ///< this cell's theta_k = {phi_sst, T}
    std::uint64_t key = 0;     ///< this cell's random-stream key

    /// Phase at time t (caller must not exceed division_time()).
    double phase_at(double t) const {
        return birth_phase + (t - birth_time) / params.cycle_minutes;
    }

    /// Experiment time at which this cell reaches phi = 1 and divides.
    double division_time() const {
        return birth_time + params.cycle_minutes * (1.0 - birth_phase);
    }
};

/// Per-cell view of the population at the simulator's current time.
struct Snapshot_entry {
    double phi = 0.0;              ///< cell-cycle phase
    double phi_sst = 0.0;          ///< the cell's SW->ST transition phase
    double relative_volume = 0.0;  ///< v(phi)/V0 under the chosen volume model
};

/// Founders [begin, end) of a population: a slice of the founder index
/// range that keeps each founder's key mix_seed(seed, i).
struct Founder_range {
    std::size_t begin = 0;
    std::size_t end = 0;
};

/// Forward-only population simulator.
class Population_simulator {
  public:
    /// Create `initial_cells` cells at t = 0 according to the config's
    /// initial-phase mode. Throws std::invalid_argument for zero cells or
    /// an invalid config.
    Population_simulator(const Cell_cycle_config& config, std::size_t initial_cells,
                         std::uint64_t seed);

    /// The sub-population descended from founders [begin, end) of the
    /// population seeded `seed`. Founder i keeps its key mix_seed(seed, i),
    /// so the simulators of a partition of [0, n) hold, at every time,
    /// exactly the cells of the n-founder population between them. An
    /// empty range is an empty population. Throws std::invalid_argument
    /// for begin > end or an invalid config.
    Population_simulator(const Cell_cycle_config& config, Founder_range founders,
                         std::uint64_t seed);

    /// Advance the simulation clock (monotonically) to `t_minutes`,
    /// performing all divisions along the way. Throws std::invalid_argument
    /// if asked to move backwards.
    void advance_to(double t_minutes) {
        advance_to(t_minutes, [](const Simulated_cell&) {});
    }

    /// advance_to(t_minutes), calling visit(cell) on every live cell, in
    /// cells() order, as the division scan passes it: one walk over the
    /// population instead of advance_to plus a loop over cells(). time()
    /// already reads t_minutes inside `visit`.
    template <class Visit>
    void advance_to(double t_minutes, Visit&& visit) {
        set_time(t_minutes);
        // Daughters may divide again before t, so a divided slot is
        // rescanned; a cell is visited once it is final. Each daughter
        // draws from her own stream, so the scan order affects only where
        // cells sit in cells_, never what they drew.
        std::size_t scan = 0;
        while (scan < cells_.size()) {
            const double t_div = cells_[scan].division_time();
            if (t_div > t_minutes) {
                visit(cells_[scan]);
                ++scan;
            } else {
                divide(scan, t_div);
            }
        }
    }

    /// Current simulation time in minutes.
    double time() const { return time_; }

    /// Number of live cells.
    std::size_t size() const { return cells_.size(); }

    /// Live-cell records.
    const std::vector<Simulated_cell>& cells() const { return cells_; }

    /// Per-cell phases and volumes at the current time.
    std::vector<Snapshot_entry> snapshot(const Volume_model& volume_model) const;

    /// Total relative population volume at the current time (sum of
    /// per-cell relative volumes), i.e. the V(t)/V0 of paper Eq 1 up to the
    /// constant N V0.
    double total_relative_volume(const Volume_model& volume_model) const;

  private:
    /// A cell born at `birth_time` whose parameters come from stream
    /// `key`; an ST daughter starts at its own phi_sst.
    Simulated_cell born(std::uint64_t key, double birth_time, bool stalked) const;

    /// Move the clock to t_minutes; throws std::invalid_argument if that
    /// is backwards.
    void set_time(double t_minutes);

    /// Divide cells_[index] at t_div: the SW daughter replaces it in
    /// place, the ST daughter is appended.
    void divide(std::size_t index, double t_div);

    Cell_cycle_config config_;
    double time_ = 0.0;
    std::vector<Simulated_cell> cells_;
};

}  // namespace cellsync
