#include "population/cell_type_census.h"

#include <stdexcept>

namespace cellsync {

Vector Census_series::type_series(Cell_type type) const {
    return fractions.col(static_cast<std::size_t>(type));
}

Census_series simulate_census(const Cell_cycle_config& config,
                              const Cell_type_thresholds& thresholds, const Vector& times,
                              const Census_options& options) {
    thresholds.validate();
    if (times.empty()) throw std::invalid_argument("simulate_census: empty time grid");
    if (times.front() < 0.0) throw std::invalid_argument("simulate_census: negative time");
    for (std::size_t i = 0; i + 1 < times.size(); ++i) {
        if (!(times[i] < times[i + 1])) {
            throw std::invalid_argument("simulate_census: times must be strictly ascending");
        }
    }
    if (options.n_cells == 0) throw std::invalid_argument("simulate_census: zero cells");

    Population_simulator sim(config, options.n_cells, options.seed);
    Census_series series;
    series.times = times;
    series.fractions = Matrix(times.size(), cell_type_count);

    for (std::size_t m = 0; m < times.size(); ++m) {
        std::array<std::size_t, cell_type_count> counts{};
        sim.advance_to(times[m], [&](const Simulated_cell& cell) {
            const Cell_type type =
                classify_cell(cell.phase_at(times[m]), cell.params.phi_sst, thresholds);
            ++counts[static_cast<std::size_t>(type)];
        });
        const double total = static_cast<double>(sim.size());
        for (std::size_t k = 0; k < cell_type_count; ++k) {
            series.fractions(m, k) = static_cast<double>(counts[k]) / total;
        }
    }
    return series;
}

}  // namespace cellsync
