// Runtime ISA dispatch for the hot product kernels.
//
// The fleet baseline forbids global -march flags, so the library binary
// must boot on any x86-64 (or non-x86) host. The hot kernels are instead
// compiled several times: once at the baseline ISA (always), and — on
// x86-64 builds whose compiler accepts the flags — again as AVX2 and
// AVX2+FMA translation units via per-file -mavx2 / -mavx2 -mfma options
// (see the CELLSYNC_DISPATCH_ISA block in CMakeLists.txt). One of the
// resulting kernel tables is selected exactly once, at first use, from
// __builtin_cpu_supports, and every entry point in numerics/matrix.cpp
// calls through it.
//
// Bit-identity policy. Every tier (scalar, avx2, fma) is bit-identical
// to the scalar reference kernels: the kernel source vectorizes across
// independent *outputs* only, never reassociating any single output's
// reduction, and the ISA translation units are pinned to
// -ffp-contract=off so the compiler cannot contract a rounded multiply
// + add into a fused multiply-add (an FMA skips the intermediate
// rounding and changes result bits).
//
// Env override (testing):
//   CELLSYNC_DISPATCH=scalar|avx2|fma
// A tier the CPU cannot execute is clamped down to the best supported
// one with a warning on stderr; an unknown value is ignored the same
// way. With CELLSYNC_SIMD=OFF only the scalar table exists and the
// override is accepted but always resolves to scalar.
#pragma once

#include <cstddef>

namespace cellsync::simd {

/// Kernel tiers in ascending ISA order. Values are stable (they are
/// exported as the `simd.dispatch_tier` telemetry gauge).
enum class Tier {
    scalar = 0,  ///< baseline build, no ISA flags
    avx2 = 1,    ///< -mavx2, contraction off
    fma = 2,     ///< -mavx2 -mfma, contraction off
};

/// One complete set of hot-kernel entry points, all compiled at a single
/// ISA tier. The kernels mirror the chunked shapes of numerics/matrix.cpp
/// and keep the per-output accumulation order of the scalar reference.
struct Kernel_table {
    Tier tier;

    /// y[i] = sum_j a(i, j) x[j]; a is rows x cols row-major, y is
    /// caller-allocated (overwritten).
    void (*matvec)(const double* a, std::size_t rows, std::size_t cols, const double* x,
                   double* y);

    /// y[j] += sum_i a(i, j) x[i]; y caller-zeroed.
    void (*transposed_times)(const double* a, std::size_t rows, std::size_t cols,
                             const double* x, double* y);

    /// Upper-triangle row i of the Gram accumulation: gi[j] =
    /// sum_k t[k] a(k, j) for j in [i, n), with the left-factor column t
    /// hoisted by the caller. a is m x n row-major.
    void (*gram_row_blocked)(double* gi, const double* a, const double* t, std::size_t m,
                             std::size_t n, std::size_t i);

    /// Upper triangle of a(rows, :)' diag(w) a(rows, :) in j-blocked
    /// form over an indirect row subset; w == nullptr for the
    /// unweighted Gram. g is n x n, cleared by the caller.
    void (*gram_rows_blocked)(double* g, const double* a, const std::size_t* rows,
                              std::size_t m, std::size_t n, const double* w);
};

/// The active kernel table. Resolved exactly once at first use (CPU
/// detection + CELLSYNC_DISPATCH override); subsequent calls are a load.
const Kernel_table& kernels();

/// Tier of the active table.
Tier active_tier();

/// "cpu" when the tier came from __builtin_cpu_supports, "env" when
/// CELLSYNC_DISPATCH forced it, "build" when the build has no ISA
/// tables (CELLSYNC_SIMD=OFF or a non-x86 target), "test" after
/// set_tier_for_testing.
const char* active_tier_origin();

/// Best tier this build + CPU can execute.
Tier max_supported_tier();

/// Human-readable tier name ("scalar", "avx2", "fma").
const char* tier_name(Tier tier);

/// Force a tier in-process (tests iterate every supported tier without
/// re-exec). Returns false — leaving the active table unchanged — when
/// this build/CPU cannot execute the tier. Not for production use: the
/// switch is atomic but kernels already inlined into running calls
/// finish on the old table.
bool set_tier_for_testing(Tier tier);

}  // namespace cellsync::simd
