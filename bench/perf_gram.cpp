// Performance: the dense product kernels in the per-gene hot loop —
// scalar reference vs the chunked (SIMD-friendly) dispatch — across
// realistic design shapes, including a cubic B-spline design. Every timed
// variant is also checked bit-for-bit against the reference; the speedups
// must come with identical results.
#include <cstdio>

#include "numerics/matrix.h"
#include "numerics/rng.h"
#include "numerics/simd.h"
#include "numerics/simd_dispatch.h"
#include "perf_util.h"
#include "spline/bspline.h"

namespace {

using namespace cellsync;

Matrix random_dense(Rng& rng, std::size_t rows, std::size_t cols) {
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
    }
    return m;
}

Vector random_weights(Rng& rng, std::size_t n) {
    Vector w(n);
    for (double& v : w) v = rng.uniform(0.5, 2.0);
    return w;
}

// --------------------------------------------------------------------------
// Google-Benchmark micro kernels over {rows, cols} shapes, on a random
// fully dense matrix.
// --------------------------------------------------------------------------

void bm_weighted_gram_reference(benchmark::State& state) {
    Rng rng(1);
    const std::size_t rows = static_cast<std::size_t>(state.range(0));
    const std::size_t cols = static_cast<std::size_t>(state.range(1));
    const Matrix a = random_dense(rng, rows, cols);
    const Vector w = random_weights(rng, rows);
    for (auto _ : state) {
        const Matrix g = weighted_gram_reference(a, w);
        benchmark::DoNotOptimize(g.data().data());
    }
}

void bm_weighted_gram_dispatch(benchmark::State& state) {
    Rng rng(1);
    const std::size_t rows = static_cast<std::size_t>(state.range(0));
    const std::size_t cols = static_cast<std::size_t>(state.range(1));
    const Matrix a = random_dense(rng, rows, cols);
    const Vector w = random_weights(rng, rows);
    for (auto _ : state) {
        const Matrix g = weighted_gram(a, w);
        benchmark::DoNotOptimize(g.data().data());
    }
}

void bm_transposed_times_reference(benchmark::State& state) {
    Rng rng(2);
    const std::size_t rows = static_cast<std::size_t>(state.range(0));
    const std::size_t cols = static_cast<std::size_t>(state.range(1));
    const Matrix a = random_dense(rng, rows, cols);
    const Vector x = random_weights(rng, rows);
    for (auto _ : state) {
        const Vector y = transposed_times_reference(a, x);
        benchmark::DoNotOptimize(y.data());
    }
}

void bm_transposed_times_dispatch(benchmark::State& state) {
    Rng rng(2);
    const std::size_t rows = static_cast<std::size_t>(state.range(0));
    const std::size_t cols = static_cast<std::size_t>(state.range(1));
    const Matrix a = random_dense(rng, rows, cols);
    const Vector x = random_weights(rng, rows);
    for (auto _ : state) {
        const Vector y = transposed_times(a, x);
        benchmark::DoNotOptimize(y.data());
    }
}

// --------------------------------------------------------------------------
// Summary section: one timed reference-vs-chunked comparison on a B-spline
// design, with bit-identity asserted, written into the JSON.
// --------------------------------------------------------------------------

void run_gram_summary(cellsync::bench::Bench_json& json) {
    constexpr std::size_t rows = 200;
    constexpr std::size_t cols = 24;
    constexpr std::size_t reps = 20000;

    Rng rng(3);
    const Bspline_basis basis(cols);
    const Matrix dense = basis.design_matrix(linspace(0.0, 1.0, rows));
    const Vector w = random_weights(rng, rows);

    const cellsync::bench::Stopwatch ref_watch;
    for (std::size_t r = 0; r < reps; ++r) {
        const Matrix g = weighted_gram_reference(dense, w);
        benchmark::DoNotOptimize(g.data().data());
    }
    const double ref_ms = ref_watch.elapsed_ms();

    const cellsync::bench::Stopwatch simd_watch;
    for (std::size_t r = 0; r < reps; ++r) {
        const Matrix g = weighted_gram(dense, w);
        benchmark::DoNotOptimize(g.data().data());
    }
    const double simd_ms = simd_watch.elapsed_ms();

    const Matrix g_ref = weighted_gram_reference(dense, w);
    const Matrix g_simd = weighted_gram(dense, w);
    bool identical = true;
    for (std::size_t i = 0; i < cols && identical; ++i) {
        for (std::size_t j = 0; j < cols && identical; ++j) {
            if (g_ref(i, j) != g_simd(i, j)) identical = false;
        }
    }

    std::printf("weighted_gram on a %zux%zu B-spline design (%zu reps)\n", rows, cols, reps);
    std::printf("  scalar reference : %9.1f ms\n", ref_ms);
    std::printf("  chunked dispatch : %9.1f ms (SIMD kernels %s, tier %s)\n", simd_ms,
                simd_kernels_enabled ? "on" : "off", simd::tier_name(simd::active_tier()));
    std::printf("  bit-identical    : %s\n\n", identical ? "yes" : "NO");

    json.add("summary_rows", static_cast<double>(rows));
    json.add("summary_cols", static_cast<double>(cols));
    json.add("summary_reference_ms", ref_ms);
    json.add("summary_simd_ms", simd_ms);
    json.add("summary_simd_speedup", simd_ms > 0.0 ? ref_ms / simd_ms : 0.0);
    json.add("summary_bit_identical", identical ? 1.0 : 0.0);
    json.add("summary_simd_enabled", simd_kernels_enabled ? 1.0 : 0.0);
    json.add("summary_dispatch_tier",
             static_cast<double>(static_cast<int>(simd::active_tier())));
}

}  // namespace

BENCHMARK(bm_weighted_gram_reference)
    ->Args({13, 18})
    ->Args({200, 24})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_weighted_gram_dispatch)
    ->Args({13, 18})
    ->Args({200, 24})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_transposed_times_reference)->Args({200, 24})->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_transposed_times_dispatch)->Args({200, 24})->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
    cellsync::bench::Bench_json json("gram");
    run_gram_summary(json);
    return cellsync::bench::run_perf_harness(argc, argv, std::move(json));
}
