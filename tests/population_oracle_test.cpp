// Statistical contract of the per-cell-stream population simulator.
//
// The simulator it replaced drew every cell's parameters from one shared
// mt19937_64 stream (Rng), one fresh truncated normal per value, with the
// SW daughter written over the mother and the ST daughter appended. That
// simulator lives on here, and only here, as the oracle. Kernel bytes are
// not comparable between the two realizations, so the contract is
// statistical:
//   - mean |dQ| between new and oracle kernels stays within 1.5x of the
//     oracle's own seed-to-seed distance, on configs covering both volume
//     models and all three initial-phase modes;
//   - the population size at every timepoint is within 2% of the oracle's;
//   - a mother's parameters and her daughters' are uncorrelated over
//     >= 1e5 simulated divisions.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <unordered_map>
#include <vector>

#include "numerics/rng.h"
#include "numerics/statistics.h"
#include "population/kernel_builder.h"
#include "population/phase_distribution.h"
#include "population/population_simulator.h"

namespace cellsync {
namespace {

// --- The oracle: the shared-stream simulator. ---------------------------

Cell_parameters oracle_draw_parameters(const Cell_cycle_config& config, Rng& rng) {
    Cell_parameters p;
    p.phi_sst = rng.truncated_normal(config.mu_sst, config.sigma_sst(), 0.01, 0.95);
    p.cycle_minutes = rng.truncated_normal(config.mean_cycle_minutes, config.sigma_cycle(),
                                           0.2 * config.mean_cycle_minutes,
                                           3.0 * config.mean_cycle_minutes);
    return p;
}

double oracle_initial_phase(const Cell_cycle_config& config, const Cell_parameters& params,
                            Rng& rng) {
    switch (config.initial_mode) {
        case Initial_phase_mode::all_at_zero:
            return 0.0;
        case Initial_phase_mode::synchronized_swarmers:
            return rng.uniform(0.0, params.phi_sst);
        case Initial_phase_mode::stationary:
            return -std::log2(1.0 - rng.uniform() * 0.5);
    }
    return 0.0;
}

class Shared_stream_simulator {
  public:
    Shared_stream_simulator(const Cell_cycle_config& config, std::size_t initial_cells,
                            std::uint64_t seed)
        : config_(config), rng_(seed) {
        cells_.reserve(initial_cells * 2);
        for (std::size_t i = 0; i < initial_cells; ++i) {
            Simulated_cell cell;
            cell.params = oracle_draw_parameters(config_, rng_);
            cell.birth_phase = oracle_initial_phase(config_, cell.params, rng_);
            cells_.push_back(cell);
        }
    }

    void advance_to(double t_minutes) {
        std::size_t scan = 0;
        while (scan < cells_.size()) {
            const double t_div = cells_[scan].division_time();
            if (t_div > t_minutes) {
                ++scan;
                continue;
            }
            Simulated_cell sw;
            sw.params = oracle_draw_parameters(config_, rng_);
            sw.birth_time = t_div;
            Simulated_cell st;
            st.params = oracle_draw_parameters(config_, rng_);
            st.birth_time = t_div;
            st.birth_phase = st.params.phi_sst;
            cells_[scan] = sw;
            cells_.push_back(st);
        }
        time_ = t_minutes;
    }

    std::size_t size() const { return cells_.size(); }

    std::vector<Snapshot_entry> snapshot(const Volume_model& volume_model) const {
        std::vector<Snapshot_entry> out;
        out.reserve(cells_.size());
        for (const Simulated_cell& cell : cells_) {
            Snapshot_entry e;
            e.phi = cell.phase_at(time_);
            e.phi_sst = cell.params.phi_sst;
            e.relative_volume = volume_model.relative_volume(e.phi, e.phi_sst);
            out.push_back(e);
        }
        return out;
    }

  private:
    Cell_cycle_config config_;
    Rng rng_;
    double time_ = 0.0;
    std::vector<Simulated_cell> cells_;
};

/// The oracle's kernel rows (snapshot -> phase_volume_density) and its
/// population size at each time.
struct Oracle_run {
    Matrix q;
    std::vector<std::size_t> sizes;
};

Oracle_run oracle_kernel(const Cell_cycle_config& config, const Volume_model& volume_model,
                         const Vector& times, const Kernel_build_options& options) {
    Shared_stream_simulator sim(config, options.n_cells, options.seed);
    Oracle_run run{Matrix(times.size(), options.n_bins), {}};
    for (std::size_t m = 0; m < times.size(); ++m) {
        sim.advance_to(times[m]);
        run.q.set_row(m, phase_volume_density(sim.snapshot(volume_model), options.n_bins).density);
        run.sizes.push_back(sim.size());
    }
    return run;
}

double mean_abs_difference(const Matrix& a, const Matrix& b) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.data().size(); ++i) s += std::abs(a.data()[i] - b.data()[i]);
    return s / static_cast<double>(a.data().size());
}

struct Oracle_case {
    const char* name;
    Cell_cycle_config config;
    std::shared_ptr<const Volume_model> volume;
};

std::vector<Oracle_case> oracle_cases() {
    std::vector<Oracle_case> cases;
    cases.push_back({"smooth/synchronized_swarmers", Cell_cycle_config{},
                     std::make_shared<Smooth_volume_model>()});
    Cell_cycle_config zero;
    zero.initial_mode = Initial_phase_mode::all_at_zero;
    cases.push_back({"linear/all_at_zero", zero, std::make_shared<Linear_volume_model>()});
    Cell_cycle_config stationary;
    stationary.initial_mode = Initial_phase_mode::stationary;
    stationary.mu_sst = 0.25;
    stationary.cv_cycle = 0.2;
    cases.push_back({"smooth/stationary", stationary, std::make_shared<Smooth_volume_model>()});
    Cell_cycle_config wide;
    wide.cv_sst = 0.5;
    wide.cv_cycle = 0.4;
    cases.push_back({"linear/synchronized_swarmers wide", wide,
                     std::make_shared<Linear_volume_model>()});
    return cases;
}

Kernel_build_options contract_options(std::uint64_t seed) {
    Kernel_build_options o;
    o.n_cells = 50000;
    o.n_bins = 100;
    o.seed = seed;
    return o;
}

TEST(PopulationOracle, KernelWithinOracleSeedToSeedSpread) {
    const Vector times = linspace(0.0, 240.0, 13);
    for (const Oracle_case& c : oracle_cases()) {
        const Kernel_grid fresh = build_kernel(c.config, *c.volume, times, contract_options(1));
        const Oracle_run old_a = oracle_kernel(c.config, *c.volume, times, contract_options(2));
        const Oracle_run old_b = oracle_kernel(c.config, *c.volume, times, contract_options(3));
        const double new_vs_old = mean_abs_difference(fresh.q(), old_a.q);
        const double old_vs_old = mean_abs_difference(old_b.q, old_a.q);
        EXPECT_GT(old_vs_old, 0.0) << c.name;
        EXPECT_LE(new_vs_old, 1.5 * old_vs_old)
            << c.name << ": new-vs-oracle " << new_vs_old << ", oracle seed-to-seed "
            << old_vs_old;
    }
}

TEST(PopulationOracle, PopulationSizeTracksOracle) {
    const Vector times = linspace(0.0, 300.0, 21);
    for (const Oracle_case& c : oracle_cases()) {
        const Kernel_build_options options = contract_options(4);
        const Oracle_run old = oracle_kernel(c.config, *c.volume, times, options);
        Population_simulator sim(c.config, options.n_cells, 5);
        for (std::size_t m = 0; m < times.size(); ++m) {
            sim.advance_to(times[m]);
            const double ratio =
                static_cast<double>(sim.size()) / static_cast<double>(old.sizes[m]);
            EXPECT_NEAR(ratio, 1.0, 0.02) << c.name << " t=" << times[m];
        }
    }
}

TEST(PopulationOracle, MotherAndDaughterParametersIndependent) {
    // Every founder starts at phi = 0, so by t = 200 nearly all of them
    // divided exactly once and almost no daughter has divided yet: a live
    // cell with birth_time > 0 is a daughter of the founder whose child
    // key she carries, or (rarely) a granddaughter, whose lineage is then
    // incomplete and skipped.
    Cell_cycle_config config;
    config.initial_mode = Initial_phase_mode::all_at_zero;
    const std::size_t founders = 110000;
    const std::uint64_t seed = 6;
    Population_simulator sim(config, founders, seed);
    std::vector<Cell_parameters> mothers(founders);
    std::unordered_map<std::uint64_t, std::pair<std::size_t, bool>> lineage;  // key -> (mother, stalked)
    for (std::size_t i = 0; i < founders; ++i) {
        const std::uint64_t key = mix_seed(seed, i);
        ASSERT_EQ(sim.cells()[i].key, key);
        mothers[i] = sim.cells()[i].params;
        lineage.emplace(Counter_stream::child_key(key, 0), std::make_pair(i, false));
        lineage.emplace(Counter_stream::child_key(key, 1), std::make_pair(i, true));
    }
    sim.advance_to(200.0);

    std::vector<Cell_parameters> sw(founders), st(founders);
    std::vector<char> has_sw(founders, 0), has_st(founders, 0);
    std::size_t granddaughters = 0;
    for (const Simulated_cell& cell : sim.cells()) {
        if (cell.birth_time == 0.0) continue;
        const auto it = lineage.find(cell.key);
        if (it == lineage.end()) {
            ++granddaughters;
            continue;
        }
        const auto [mother, stalked] = it->second;
        // Re-drawing from the daughter's key reproduces her parameters.
        Counter_stream stream(cell.key);
        const Cell_parameters redrawn = draw_cell_parameters(config, stream);
        EXPECT_EQ(redrawn.phi_sst, cell.params.phi_sst);
        EXPECT_EQ(redrawn.cycle_minutes, cell.params.cycle_minutes);
        EXPECT_EQ(cell.birth_phase, stalked ? cell.params.phi_sst : 0.0);
        (stalked ? st : sw)[mother] = cell.params;
        (stalked ? has_st : has_sw)[mother] = 1;
    }

    EXPECT_LT(granddaughters, founders / 100);

    Vector m_sst, m_cycle, sw_sst, sw_cycle, st_sst, st_cycle;
    for (std::size_t i = 0; i < founders; ++i) {
        if (!has_sw[i] || !has_st[i]) continue;
        m_sst.push_back(mothers[i].phi_sst);
        m_cycle.push_back(mothers[i].cycle_minutes);
        sw_sst.push_back(sw[i].phi_sst);
        sw_cycle.push_back(sw[i].cycle_minutes);
        st_sst.push_back(st[i].phi_sst);
        st_cycle.push_back(st[i].cycle_minutes);
    }
    ASSERT_GE(m_sst.size(), 100000u);
    const std::vector<std::pair<const Vector*, const Vector*>> pairs = {
        {&m_sst, &sw_sst},    {&m_cycle, &sw_cycle}, {&m_sst, &st_sst},
        {&m_cycle, &st_cycle}, {&sw_sst, &st_sst},   {&sw_cycle, &st_cycle},
        {&m_sst, &sw_cycle},  {&m_cycle, &st_sst},   {&sw_sst, &sw_cycle},
        {&st_sst, &st_cycle},
    };
    for (std::size_t k = 0; k < pairs.size(); ++k) {
        EXPECT_LT(std::abs(pearson_correlation(*pairs[k].first, *pairs[k].second)), 0.02)
            << "pair " << k;
    }
}

}  // namespace
}  // namespace cellsync
