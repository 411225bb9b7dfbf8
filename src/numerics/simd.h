// Compile-time SIMD policy for the dense numeric kernels.
//
// The hot dense kernels in numerics/matrix.cpp exist in two forms:
//
//   * a *reference* form — the straight scalar loops the library shipped
//     with, kept permanently as the bit-level ground truth; and
//   * a *chunked* form — the same arithmetic restructured so the innermost
//     loop runs over independent output elements in fixed-width chunks of
//     CELLSYNC_SIMD_CHUNK doubles (explicit 4-lane unrolls the
//     autovectorizer maps onto AVX2/NEON registers, and that still pay off
//     as four independent FMA chains on plain SSE2).
//
// The chunked kernels vectorize only across *outputs*; the accumulation
// order of the terms feeding any single output element is never changed,
// so the chunked and reference paths produce bit-identical results —
// asserted by tests/packed_banded_test.cpp, tests/banded_matrix_test.cpp
// and the CI leg that rebuilds everything with CELLSYNC_SIMD=0.
//
// CELLSYNC_SIMD is normally set by the CMake option of the same name
// (default ON). Building with -DCELLSYNC_SIMD=OFF compiles the dispatching
// entry points down to the reference loops.
#pragma once

#include <cstddef>

#ifndef CELLSYNC_SIMD
#define CELLSYNC_SIMD 1
#endif

namespace cellsync {

/// Width of the explicit partial-sum chunks in the chunked kernels, in
/// doubles. Four doubles = one AVX2 register (two SSE2/NEON registers).
inline constexpr std::size_t simd_chunk_doubles = 4;

/// True when the library was built with the chunked kernels enabled
/// (CELLSYNC_SIMD=1, the default). Recorded into bench JSON so a perf
/// number is always attributable to the kernel set that produced it.
inline constexpr bool simd_kernels_enabled = CELLSYNC_SIMD != 0;

}  // namespace cellsync
