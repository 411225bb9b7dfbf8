// Performance: Monte-Carlo kernel construction Q(phi, t) — the dominant
// cost of the pipeline — vs cell count, bin resolution, and time count;
// plus the six-condition cold-cache experiment at a fixed lambda, which
// times the kernel builds spread over four worker threads together with
// the solves they overlap.
#include <iterator>
#include <numbers>
#include <string>

#include "perf_util.h"

#include "biology/gene_profiles.h"
#include "core/experiment_runner.h"
#include "core/forward_model.h"
#include "population/kernel_builder.h"
#include "spline/spline_basis.h"

namespace {

void bm_build_kernel(benchmark::State& state) {
    using namespace cellsync;
    Kernel_build_options options;
    options.n_cells = static_cast<std::size_t>(state.range(0));
    options.n_bins = static_cast<std::size_t>(state.range(1));
    const Vector times = linspace(0.0, 180.0, static_cast<std::size_t>(state.range(2)));
    const Smooth_volume_model volume;
    for (auto _ : state) {
        const Kernel_grid kernel = build_kernel(Cell_cycle_config{}, volume, times, options);
        benchmark::DoNotOptimize(kernel.q().data().data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(options.n_cells) * state.range(2));
}

void bm_kernel_basis_matrix(benchmark::State& state) {
    using namespace cellsync;
    Kernel_build_options options;
    options.n_cells = 20000;
    options.n_bins = 200;
    const Kernel_grid kernel =
        build_kernel(Cell_cycle_config{}, Smooth_volume_model{}, linspace(0.0, 180.0, 13),
                     options);
    const Natural_spline_basis basis(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        const Matrix k = kernel.basis_matrix(basis);
        benchmark::DoNotOptimize(k.data().data());
    }
}

/// Six strains differing in cycle speed and transition phase, each with a
/// 200-gene panel on 13 timepoints over 0..180 min; kernels at the
/// default build options (100,000 cells, 200 bins), lambda fixed at 1e-3.
cellsync::Experiment_spec panel_cold_fixed_spec() {
    using namespace cellsync;
    const double mu_sst[] = {0.15, 0.13, 0.17, 0.14, 0.16, 0.12};
    const double cycle_minutes[] = {150.0, 130.0, 170.0, 140.0, 160.0, 145.0};
    const std::size_t genes = 200;
    const Vector times = linspace(0.0, 180.0, 13);
    Experiment_spec spec;
    spec.threads = 4;
    spec.batch.select_lambda = false;
    spec.batch.deconvolution.lambda = 1e-3;
    Kernel_build_options generator;
    generator.n_cells = 20000;
    generator.seed = 11;
    Rng rng(5);
    const Noise_model noise{Noise_type::absolute_gaussian, 0.08};
    for (std::size_t c = 0; c < std::size(mu_sst); ++c) {
        Experiment_condition condition;
        condition.name = 'c' + std::to_string(c);
        condition.cell_cycle.mu_sst = mu_sst[c];
        condition.cell_cycle.mean_cycle_minutes = cycle_minutes[c];
        const Kernel_grid kernel =
            build_kernel(condition.cell_cycle, Smooth_volume_model{}, times, generator);
        for (std::size_t g = 0; g < genes; ++g) {
            const double phase = 2.0 * std::numbers::pi * static_cast<double>(g) /
                                 static_cast<double>(genes);
            condition.panel.push_back(forward_measurements_noisy(
                kernel, sinusoid_profile(3.0, 2.0, 1.0, phase).f, noise, rng,
                'g' + std::to_string(g)));
        }
        spec.conditions.push_back(std::move(condition));
    }
    return spec;
}

void bm_panel_cold_fixed_experiment(benchmark::State& state) {
    using namespace cellsync;
    static const Experiment_spec spec = panel_cold_fixed_spec();
    const Smooth_volume_model volume;
    std::size_t builds = 0;
    for (auto _ : state) {
        Kernel_cache cache;  // memory only, empty: every kernel is built
        const Experiment_result result = run_experiment(spec, volume, cache);
        builds = result.cache_stats.builds;
        benchmark::DoNotOptimize(result.conditions.data());
    }
    state.counters["kernel_builds"] = static_cast<double>(builds);
}

}  // namespace

BENCHMARK(bm_build_kernel)
    ->Args({20000, 200, 13})
    ->Args({50000, 200, 13})
    ->Args({100000, 200, 13})
    ->Args({50000, 400, 13})
    ->Args({50000, 200, 25})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_kernel_basis_matrix)->Arg(12)->Arg(18)->Arg(36)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_panel_cold_fixed_experiment)->UseRealTime()->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
    return cellsync::bench::run_perf_harness(argc, argv, "perf_kernel");
}
