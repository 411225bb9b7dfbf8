#include "population/population_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numerics/statistics.h"

namespace cellsync {
namespace {

TEST(PopulationSimulator, InitialPopulationIsSynchronizedSwarmers) {
    const Cell_cycle_config config;
    Population_simulator sim(config, 5000, 1);
    EXPECT_EQ(sim.size(), 5000u);
    EXPECT_DOUBLE_EQ(sim.time(), 0.0);
    for (const Simulated_cell& c : sim.cells()) {
        EXPECT_GE(c.phase_at(0.0), 0.0);
        EXPECT_LE(c.phase_at(0.0), c.params.phi_sst);
    }
}

TEST(PopulationSimulator, RejectsBadConstruction) {
    EXPECT_THROW(Population_simulator(Cell_cycle_config{}, 0, 1), std::invalid_argument);
    Cell_cycle_config bad;
    bad.mu_sst = 2.0;
    EXPECT_THROW(Population_simulator(bad, 10, 1), std::invalid_argument);
}

TEST(PopulationSimulator, TimeMovesForwardOnly) {
    Population_simulator sim(Cell_cycle_config{}, 100, 2);
    sim.advance_to(10.0);
    EXPECT_DOUBLE_EQ(sim.time(), 10.0);
    EXPECT_THROW(sim.advance_to(5.0), std::invalid_argument);
    sim.advance_to(10.0);  // same time is a no-op
}

TEST(PopulationSimulator, PhasesStayInUnitInterval) {
    Population_simulator sim(Cell_cycle_config{}, 2000, 3);
    const Smooth_volume_model vm;
    for (double t : {30.0, 75.0, 120.0, 180.0, 240.0}) {
        sim.advance_to(t);
        for (const Snapshot_entry& e : sim.snapshot(vm)) {
            EXPECT_GE(e.phi, 0.0);
            EXPECT_LE(e.phi, 1.0 + 1e-12) << "t=" << t;
        }
    }
}

TEST(PopulationSimulator, PopulationGrowsByDivision) {
    Population_simulator sim(Cell_cycle_config{}, 10000, 4);
    const std::size_t start = sim.size();
    sim.advance_to(180.0);
    EXPECT_GT(sim.size(), start);
    // After ~1.2 mean cycles from a synchronized start, most cells divided
    // exactly once: expect between 1.3x and 2.2x growth.
    const double growth = static_cast<double>(sim.size()) / static_cast<double>(start);
    EXPECT_GT(growth, 1.3);
    EXPECT_LT(growth, 2.2);
}

TEST(PopulationSimulator, DivisionProducesSwarmerAndStalkedDaughters) {
    // Run past the first division wave and check birth phases.
    Population_simulator sim(Cell_cycle_config{}, 5000, 5);
    sim.advance_to(170.0);
    std::size_t sw_births = 0, st_births = 0;
    for (const Simulated_cell& c : sim.cells()) {
        if (c.birth_time > 0.0) {
            if (c.birth_phase == 0.0) {
                ++sw_births;
            } else {
                EXPECT_NEAR(c.birth_phase, c.params.phi_sst, 1e-12);
                ++st_births;
            }
        }
    }
    EXPECT_GT(sw_births, 0u);
    // Every division creates exactly one of each.
    EXPECT_EQ(sw_births, st_births);
}

TEST(PopulationSimulator, DeterministicGivenSeed) {
    Population_simulator a(Cell_cycle_config{}, 500, 42);
    Population_simulator b(Cell_cycle_config{}, 500, 42);
    a.advance_to(100.0);
    b.advance_to(100.0);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.cells()[i].phase_at(100.0), b.cells()[i].phase_at(100.0));
    }
}

TEST(PopulationSimulator, SnapshotVolumesMatchModel) {
    Population_simulator sim(Cell_cycle_config{}, 200, 6);
    sim.advance_to(60.0);
    const Smooth_volume_model vm;
    const auto snap = sim.snapshot(vm);
    ASSERT_EQ(snap.size(), sim.size());
    for (const Snapshot_entry& e : snap) {
        EXPECT_NEAR(e.relative_volume, vm.relative_volume(e.phi, e.phi_sst), 1e-12);
        EXPECT_GE(e.relative_volume, 0.4 - 1e-12);
        EXPECT_LE(e.relative_volume, 1.0 + 1e-12);
    }
}

TEST(PopulationSimulator, TotalVolumeGrowsMonotonically) {
    Population_simulator sim(Cell_cycle_config{}, 5000, 7);
    const Smooth_volume_model vm;
    double prev = sim.total_relative_volume(vm);
    for (double t = 15.0; t <= 300.0; t += 15.0) {
        sim.advance_to(t);
        const double v = sim.total_relative_volume(vm);
        EXPECT_GT(v, prev * 0.999) << "t=" << t;  // growth (volume conserved at division)
        prev = v;
    }
}

TEST(PopulationSimulator, IncrementalAdvanceStatisticallyMatchesDirectAdvance) {
    // Each cell draws from its own stream, so the two schedules even give
    // the same cells (AdvanceScheduleDoesNotChangeTheRealization); the
    // statistics must agree in any case.
    Population_simulator direct(Cell_cycle_config{}, 5000, 9);
    Population_simulator stepped(Cell_cycle_config{}, 5000, 9);
    direct.advance_to(150.0);
    for (double t = 10.0; t <= 150.0; t += 10.0) stepped.advance_to(t);
    const double size_ratio =
        static_cast<double>(direct.size()) / static_cast<double>(stepped.size());
    EXPECT_NEAR(size_ratio, 1.0, 0.02);
    const Smooth_volume_model vm;
    const double volume_ratio =
        direct.total_relative_volume(vm) / stepped.total_relative_volume(vm);
    EXPECT_NEAR(volume_ratio, 1.0, 0.02);
}

TEST(PopulationSimulator, AdvanceScheduleDoesNotChangeTheRealization) {
    // Per-cell streams: a cell's parameters depend only on the seed and
    // its lineage, so stepping through intermediate times yields the same
    // set of cells as one direct advance (only their order may differ).
    Cell_cycle_config config;
    config.initial_mode = Initial_phase_mode::stationary;
    Population_simulator direct(config, 3000, 12);
    Population_simulator stepped(config, 3000, 12);
    direct.advance_to(400.0);
    for (double t = 7.0; t < 400.0; t += 13.0) stepped.advance_to(t);
    stepped.advance_to(400.0);
    auto sorted = [](std::vector<Simulated_cell> cells) {
        std::sort(cells.begin(), cells.end(),
                  [](const Simulated_cell& a, const Simulated_cell& b) { return a.key < b.key; });
        return cells;
    };
    const std::vector<Simulated_cell> a = sorted(direct.cells());
    const std::vector<Simulated_cell> b = sorted(stepped.cells());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].key, b[i].key);
        EXPECT_EQ(a[i].birth_time, b[i].birth_time);
        EXPECT_EQ(a[i].birth_phase, b[i].birth_phase);
        EXPECT_EQ(a[i].params.phi_sst, b[i].params.phi_sst);
        EXPECT_EQ(a[i].params.cycle_minutes, b[i].params.cycle_minutes);
    }
}

TEST(PopulationSimulator, FounderRangesPartitionThePopulation) {
    // Founder i keeps its key mix_seed(seed, i) in any range, so the
    // simulators of a partition of [0, n) (one of them empty) hold
    // exactly the whole population's cells between them.
    Cell_cycle_config config;
    config.initial_mode = Initial_phase_mode::stationary;
    const std::size_t n = 2000;
    Population_simulator whole(config, n, 21);
    whole.advance_to(330.0);
    std::vector<Simulated_cell> pieces;
    const std::size_t bounds[] = {0, 0, 1, 700, 701, 1999, n};
    for (std::size_t r = 0; r + 1 < std::size(bounds); ++r) {
        Population_simulator part(config, Founder_range{bounds[r], bounds[r + 1]}, 21);
        if (bounds[r] == bounds[r + 1]) EXPECT_EQ(part.size(), 0u);
        part.advance_to(330.0);
        pieces.insert(pieces.end(), part.cells().begin(), part.cells().end());
    }
    auto sorted = [](std::vector<Simulated_cell> cells) {
        std::sort(cells.begin(), cells.end(),
                  [](const Simulated_cell& a, const Simulated_cell& b) { return a.key < b.key; });
        return cells;
    };
    const std::vector<Simulated_cell> a = sorted(whole.cells());
    const std::vector<Simulated_cell> b = sorted(pieces);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].key, b[i].key);
        EXPECT_EQ(a[i].birth_time, b[i].birth_time);
        EXPECT_EQ(a[i].birth_phase, b[i].birth_phase);
        EXPECT_EQ(a[i].params.phi_sst, b[i].params.phi_sst);
        EXPECT_EQ(a[i].params.cycle_minutes, b[i].params.cycle_minutes);
    }
    EXPECT_THROW(Population_simulator(config, Founder_range{5, 4}, 21), std::invalid_argument);
}

TEST(SimulatedCell, DivisionTimeArithmetic) {
    Simulated_cell c;
    c.birth_time = 10.0;
    c.birth_phase = 0.25;
    c.params = {0.15, 100.0};
    EXPECT_DOUBLE_EQ(c.division_time(), 10.0 + 75.0);
    EXPECT_DOUBLE_EQ(c.phase_at(60.0), 0.75);
}

}  // namespace
}  // namespace cellsync
