#include "population/population_simulator.h"

#include <stdexcept>

namespace cellsync {

Population_simulator::Population_simulator(const Cell_cycle_config& config,
                                           std::size_t initial_cells, std::uint64_t seed)
    : Population_simulator(config, Founder_range{0, initial_cells}, seed) {
    if (initial_cells == 0) {
        throw std::invalid_argument("Population_simulator: need at least one initial cell");
    }
}

Population_simulator::Population_simulator(const Cell_cycle_config& config,
                                           Founder_range founders, std::uint64_t seed)
    : config_(config) {
    config_.validate();
    if (founders.begin > founders.end) {
        throw std::invalid_argument("Population_simulator: founder range begins after it ends");
    }
    cells_.reserve((founders.end - founders.begin) * 2);
    for (std::size_t i = founders.begin; i < founders.end; ++i) {
        Simulated_cell cell;
        cell.key = mix_seed(seed, i);
        Counter_stream stream(cell.key);
        cell.params = draw_cell_parameters(config_, stream);
        cell.birth_time = 0.0;
        cell.birth_phase = draw_initial_phase(config_, cell.params, stream);
        cells_.push_back(cell);
    }
}

Simulated_cell Population_simulator::born(std::uint64_t key, double birth_time,
                                          bool stalked) const {
    Simulated_cell cell;
    cell.key = key;
    Counter_stream stream(key);
    cell.params = draw_cell_parameters(config_, stream);
    cell.birth_time = birth_time;
    cell.birth_phase = stalked ? cell.params.phi_sst : 0.0;
    return cell;
}

void Population_simulator::set_time(double t_minutes) {
    if (t_minutes < time_) {
        throw std::invalid_argument("Population_simulator::advance_to: time must not decrease");
    }
    time_ = t_minutes;
}

void Population_simulator::divide(std::size_t index, double t_div) {
    const std::uint64_t key = cells_[index].key;
    cells_.push_back(born(Counter_stream::child_key(key, 1), t_div, true));
    cells_[index] = born(Counter_stream::child_key(key, 0), t_div, false);
}

std::vector<Snapshot_entry> Population_simulator::snapshot(
    const Volume_model& volume_model) const {
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

double Population_simulator::total_relative_volume(const Volume_model& volume_model) const {
    double s = 0.0;
    for (const Simulated_cell& cell : cells_) {
        s += volume_model.relative_volume(cell.phase_at(time_), cell.params.phi_sst);
    }
    return s;
}

}  // namespace cellsync
