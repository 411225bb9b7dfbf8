// Figure 4: simulated distribution of Caulobacter cell types over 75-150
// minutes (top panel) against the experimental distribution of Judd et
// al. 2003 (bottom panel; here the Judd-style reference model, see
// DESIGN.md substitutions).
//
// Reproduction criterion: "Our cell-type distribution model predicts
// highly similar distributions of each cell type" — scored as RMSE per
// type between the midpoint-threshold census and the reference. Exits 1
// when any type misses it, so ctest runs it as an accuracy gate.
#include <cstdio>

#include "bench_util.h"
#include "io/reference_data.h"
#include "population/cell_type_census.h"

int main() {
    using namespace cellsync;
    using namespace cellsync::bench;
    print_header("fig4", "cell-type distribution vs Judd-style reference");

    const Cell_cycle_config config;
    const Vector times = linspace(75.0, 150.0, 16);
    Census_options options;
    options.n_cells = 200000;

    const Census_series low = simulate_census(config, thresholds_low(), times, options);
    const Census_series mid = simulate_census(config, thresholds_mid(), times, options);
    const Census_series high = simulate_census(config, thresholds_high(), times, options);
    const Reference_census reference = judd_reference_census(times);

    const char* labels[] = {"SW", "STE", "STEPD", "STLPD"};
    std::printf("simulated fractions, midpoint thresholds (band = low..high), "
                "vs reference:\n\n");
    std::printf("  t(min)");
    for (const char* label : labels) std::printf("  %-19s", label);
    std::printf("\n");
    for (std::size_t m = 0; m < times.size(); m += 3) {
        std::printf("  %5.0f ", times[m]);
        for (std::size_t k = 0; k < cell_type_count; ++k) {
            std::printf("  %.2f[%.2f-%.2f]|%.2f", mid.fractions(m, k),
                        std::min(low.fractions(m, k), high.fractions(m, k)),
                        std::max(low.fractions(m, k), high.fractions(m, k)),
                        reference.fractions(m, k));
        }
        std::printf("\n");
    }

    std::printf("\nagreement (simulated midpoint vs reference):\n");
    bool pass = true;
    for (std::size_t k = 0; k < cell_type_count; ++k) {
        const double err = rmse(mid.fractions.col(k), reference.fractions.col(k));
        const double dev = max_abs_error(mid.fractions.col(k), reference.fractions.col(k));
        std::printf("  %-6s rmse=%.4f  max|dev|=%.4f\n", labels[k], err, dev);
        pass = pass && err < 0.12;
    }
    std::printf("criterion rmse<0.12 per type : %s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
