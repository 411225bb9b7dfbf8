// AVX2+FMA kernel table, default mode: per-file
// "-mavx2;-mfma;-ffp-contract=off". FMA hardware is available to the
// compiler, but multiply + add contraction stays disabled — a fused
// multiply-add skips the intermediate rounding of the product and would
// change result bits.
#include <cstddef>
#include <vector>

#include "numerics/simd.h"
#include "numerics/simd_dispatch.h"

#if defined(CELLSYNC_DISPATCH_ISA) && defined(__AVX2__) && defined(__FMA__)
#define CELLSYNC_KERNEL_TIER_NS k_fma
#define CELLSYNC_KERNEL_TIER Tier::fma
#include "numerics/simd_kernels.inc"
#endif
