// Kernel-table resolution: CPU detection, CELLSYNC_DISPATCH override,
// and the one place in the tree allowed to touch ISA-detection builtins
// (tools/cellsync_lint's `simd` rule bans them everywhere else so
// dispatch stays centralized).
#include "numerics/simd_dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/telemetry.h"
#include "numerics/simd.h"

namespace cellsync::simd {

namespace k_scalar {
const Kernel_table& table();
}
#if defined(CELLSYNC_DISPATCH_ISA)
namespace k_avx2 {
const Kernel_table& table();
}
namespace k_fma {
const Kernel_table& table();
}
#endif

namespace {

/// Resolution result: which table, and where the choice came from.
struct Resolution {
    const Kernel_table* table = nullptr;
    const char* origin = "build";
};

const Kernel_table* table_for(Tier tier) {
    switch (tier) {
        case Tier::scalar:
            return &k_scalar::table();
#if defined(CELLSYNC_DISPATCH_ISA)
        case Tier::avx2:
            return &k_avx2::table();
        case Tier::fma:
            return &k_fma::table();
#else
        default:
            break;
#endif
    }
    return nullptr;
}

/// Best tier the host CPU can execute with this build's tables.
Tier detect_cpu_tier() {
#if defined(CELLSYNC_DISPATCH_ISA)
    if (__builtin_cpu_supports("avx2")) {
        if (__builtin_cpu_supports("fma")) return Tier::fma;
        return Tier::avx2;
    }
#endif
    return Tier::scalar;
}

bool cpu_can_run(Tier tier) {
    const Tier best = detect_cpu_tier();
    if (tier == Tier::scalar) return true;
    if (tier == Tier::fma) return best == Tier::fma;
    return best == Tier::fma || best == Tier::avx2;  // avx2
}

bool parse_tier(const char* s, Tier* out) {
    if (std::strcmp(s, "scalar") == 0) {
        *out = Tier::scalar;
    } else if (std::strcmp(s, "avx2") == 0) {
        *out = Tier::avx2;
    } else if (std::strcmp(s, "fma") == 0) {
        *out = Tier::fma;
    } else {
        return false;
    }
    return true;
}

Resolution resolve() {
    Resolution r;
    Tier tier = detect_cpu_tier();
    r.origin = "cpu";
#if !defined(CELLSYNC_DISPATCH_ISA)
    r.origin = "build";
#endif
    const char* env = std::getenv("CELLSYNC_DISPATCH");
    if (env != nullptr && *env != '\0') {  // empty counts as unset (CI matrix)
        Tier forced = Tier::scalar;
        if (!parse_tier(env, &forced)) {
            std::fprintf(stderr,
                         "cellsync: ignoring unknown CELLSYNC_DISPATCH value '%s' "
                         "(expected scalar|avx2|fma)\n",
                         env);
        } else if (table_for(forced) == nullptr || !cpu_can_run(forced)) {
            std::fprintf(stderr,
                         "cellsync: CELLSYNC_DISPATCH=%s not executable on this "
                         "build/host; staying at tier '%s'\n",
                         env, tier_name(tier));
        } else {
            tier = forced;
            r.origin = "env";
        }
    }
    r.table = table_for(tier);
    if (r.table == nullptr) r.table = &k_scalar::table();
    return r;
}

void publish_tier_gauge(Tier tier) {
    static telemetry::Gauge& g = telemetry::gauge("simd.dispatch_tier");
    g.set(static_cast<double>(tier));
}

const Resolution& startup_resolution() {
    static const Resolution r = [] {
        Resolution resolved = resolve();
        // Published once here (not per kernels() call — that is the hot
        // path) so --metrics-json always names the tier that produced
        // the run's numbers.
        publish_tier_gauge(resolved.table->tier);
        return resolved;
    }();
    return r;
}

/// Test-only override; null means "use the startup resolution".
std::atomic<const Kernel_table*> test_override{nullptr};

}  // namespace

const Kernel_table& kernels() {
    const Kernel_table* forced = test_override.load(std::memory_order_acquire);
    if (forced != nullptr) return *forced;
    return *startup_resolution().table;
}

Tier active_tier() { return kernels().tier; }

const char* active_tier_origin() {
    if (test_override.load(std::memory_order_acquire) != nullptr) return "test";
    return startup_resolution().origin;
}

Tier max_supported_tier() { return detect_cpu_tier(); }

const char* tier_name(Tier tier) {
    switch (tier) {
        case Tier::scalar:
            return "scalar";
        case Tier::avx2:
            return "avx2";
        case Tier::fma:
            return "fma";
    }
    return "unknown";
}

bool set_tier_for_testing(Tier tier) {
    const Kernel_table* table = table_for(tier);
    if (table == nullptr || !cpu_can_run(tier)) return false;
    test_override.store(table, std::memory_order_release);
    publish_tier_gauge(tier);
    return true;
}

}  // namespace cellsync::simd
