#include "population/kernel_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "population/kernel_io.h"

namespace cellsync {
namespace {

Kernel_build_options tiny_options() {
    Kernel_build_options o;
    o.n_cells = 2000;
    o.n_bins = 40;
    o.seed = 7;
    return o;
}

std::string fresh_dir(const std::string& name) {
    const std::string dir = testing::TempDir() + "cellsync_kernel_cache_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

void expect_bit_identical(const Kernel_grid& a, const Kernel_grid& b) {
    ASSERT_EQ(a.time_count(), b.time_count());
    ASSERT_EQ(a.bin_count(), b.bin_count());
    for (std::size_t m = 0; m < a.time_count(); ++m) {
        EXPECT_EQ(a.times()[m], b.times()[m]) << "time " << m;
        for (std::size_t c = 0; c < a.bin_count(); ++c) {
            EXPECT_EQ(a.q()(m, c), b.q()(m, c)) << "entry (" << m << ", " << c << ")";
        }
    }
    for (std::size_t c = 0; c < a.bin_count(); ++c) {
        EXPECT_EQ(a.phi_centers()[c], b.phi_centers()[c]) << "center " << c;
    }
}

TEST(KernelCache, MemoryHitReturnsSameGridWithoutRebuilding) {
    Kernel_cache cache;
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0, 60.0};

    const auto first = cache.get_or_build(config, vm, times, tiny_options());
    const auto second = cache.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(first.get(), second.get());  // shared, not re-simulated
    const Kernel_cache_stats stats = cache.stats();
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_EQ(stats.memory_hits, 1u);
    EXPECT_EQ(stats.disk_hits, 0u);
}

TEST(KernelCache, KeyCoversEveryBuildInput) {
    const Cell_cycle_config config;
    const Smooth_volume_model smooth;
    const Linear_volume_model linear;
    const Vector times{0.0, 30.0};
    const Kernel_build_options options = tiny_options();
    const std::string base = Kernel_cache::cache_key(config, smooth, times, options);

    Cell_cycle_config other_config = config;
    other_config.mu_sst = 0.18;
    EXPECT_NE(Kernel_cache::cache_key(other_config, smooth, times, options), base);

    EXPECT_NE(Kernel_cache::cache_key(config, linear, times, options), base);

    EXPECT_NE(Kernel_cache::cache_key(config, smooth, {0.0, 45.0}, options), base);

    Kernel_build_options other_options = options;
    other_options.seed = 8;
    EXPECT_NE(Kernel_cache::cache_key(config, smooth, times, other_options), base);
    other_options = options;
    other_options.n_bins = 41;
    EXPECT_NE(Kernel_cache::cache_key(config, smooth, times, other_options), base);
    other_options = options;
    other_options.n_cells = 2001;
    EXPECT_NE(Kernel_cache::cache_key(config, smooth, times, other_options), base);

    // And identical inputs agree, including through copies.
    EXPECT_EQ(Kernel_cache::cache_key(Cell_cycle_config{}, Smooth_volume_model{}, times,
                                      tiny_options()),
              base);
}

TEST(KernelCache, DifferentInputsTriggerRebuilds) {
    Kernel_cache cache;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    Cell_cycle_config config;
    cache.get_or_build(config, vm, times, tiny_options());
    config.mu_sst = 0.20;
    cache.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(cache.stats().builds, 2u);
    EXPECT_EQ(cache.stats().memory_hits, 0u);
}

TEST(KernelCache, DiskRoundTripIsBitIdenticalToFreshBuild) {
    const std::string dir = fresh_dir("roundtrip");
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 25.0, 50.0, 75.0};

    Kernel_cache writer(dir);
    const auto built = writer.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(writer.stats().builds, 1u);

    // A fresh cache instance has no memory entries: the hit must come from
    // disk and reproduce the simulated grid bit-for-bit.
    Kernel_cache reader(dir);
    const auto loaded = reader.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(reader.stats().builds, 0u);
    EXPECT_EQ(reader.stats().disk_hits, 1u);
    expect_bit_identical(*built, *loaded);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, ClearMemoryFallsThroughToDisk) {
    const std::string dir = fresh_dir("clear");
    Kernel_cache cache(dir);
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    cache.get_or_build(config, vm, times, tiny_options());
    cache.clear_memory();
    cache.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().disk_hits, 1u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, CorruptDiskEntryDegradesToRebuild) {
    const std::string dir = fresh_dir("corrupt");
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    {
        Kernel_cache cache(dir);
        cache.get_or_build(config, vm, times, tiny_options());
    }
    // Truncate the kernel file (sidecar stays valid) — the loader must
    // reject it and rebuild instead of throwing or serving garbage.
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".bin" || entry.path().extension() == ".csv") {
            std::ofstream truncate(entry.path(), std::ios::trunc);
            truncate << "phi,t0\nnot,a,kernel\n";
        }
    }
    Kernel_cache cache(dir);
    const auto kernel = cache.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().disk_hits, 0u);
    EXPECT_EQ(kernel->time_count(), 2u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, StaleSidecarKeyIsIgnored) {
    const std::string dir = fresh_dir("stale");
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    {
        Kernel_cache cache(dir);
        cache.get_or_build(config, vm, times, tiny_options());
    }
    // Rewrite the sidecar with a different key: simulates a hash collision
    // or a torn write. The entry must not be served.
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".key") {
            std::ofstream rewrite(entry.path(), std::ios::trunc);
            rewrite << "some-other-key";
        }
    }
    Kernel_cache cache(dir);
    cache.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().disk_hits, 0u);
    std::filesystem::remove_all(dir);
}

/// Plant `stale` where an older realization stored this lookup's kernel:
/// under the hash of the current key with its prefix swapped for
/// `old_prefix` (and without the chunk count v3 added), with a matching
/// sidecar.
void plant_old_entry(const std::string& dir, const std::string& old_prefix,
                     const Cell_cycle_config& config, const Volume_model& vm,
                     const Vector& times) {
    std::string key = Kernel_cache::cache_key(config, vm, times, tiny_options());
    const std::string v3_prefix = "cellsync-kernel-v3;chunks=" +
                                  std::to_string(Kernel_build::chunk_count()) + ";";
    ASSERT_EQ(key.rfind(v3_prefix, 0), 0u) << key;
    key.replace(0, v3_prefix.size(), old_prefix);
    const std::string hash = Kernel_cache::key_hash(key);
    std::filesystem::create_directories(dir);
    const Kernel_grid stale(times, {0.25, 0.75}, Matrix(2, 2, 1.0));
    write_kernel_file(dir + "/kernel_" + hash + ".bin", stale, Kernel_format::binary);
    std::ofstream sidecar(dir + "/kernel_" + hash + ".key", std::ios::binary);
    sidecar << key;
}

/// An entry planted under an older realization's key is rebuilt, never
/// served, and the rebuilt entry then serves a fresh cache from disk.
void expect_old_entry_rebuilt(const std::string& dir, const std::string& old_prefix) {
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    plant_old_entry(dir, old_prefix, config, vm, times);

    Kernel_cache cache(dir);
    const auto served = cache.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().disk_hits, 0u);
    expect_bit_identical(*served, build_kernel(config, vm, times, tiny_options()));

    Kernel_cache reader(dir);
    expect_bit_identical(*reader.get_or_build(config, vm, times, tiny_options()), *served);
    EXPECT_EQ(reader.stats().disk_hits, 1u);
    EXPECT_EQ(reader.stats().builds, 0u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, EntryUnderV1KeyIsRebuiltNotServed) {
    // Kernels of the shared-stream simulator were stored under
    // `cellsync-kernel-v1` keys.
    expect_old_entry_rebuilt(fresh_dir("v1_key"), "cellsync-kernel-v1;");
}

TEST(KernelCache, EntryUnderV2KeyIsRebuiltNotServed) {
    // Kernels of the single-population build (per-cell streams, one
    // histogram per time) were stored under `cellsync-kernel-v2` keys;
    // their bytes differ from the founder-chunked build's by rounding.
    expect_old_entry_rebuilt(fresh_dir("v2_key"), "cellsync-kernel-v2;");
}

TEST(KernelCache, EmptyDirectoryRejected) {
    EXPECT_THROW(Kernel_cache(std::string{}), std::invalid_argument);
}

TEST(KernelCache, ManifestTracksEntriesBytesAndRecency) {
    const std::string dir = fresh_dir("manifest");
    const Smooth_volume_model vm;
    Cell_cycle_config config;
    Kernel_cache cache(dir);
    cache.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    const std::string first_hash = cache.manifest().entries[0].hash;
    config.mu_sst = 0.25;  // exactly representable: safe to grep in the key
    cache.get_or_build(config, vm, {0.0, 30.0}, tiny_options());

    Kernel_cache_manifest manifest = cache.manifest();
    ASSERT_EQ(manifest.entries.size(), 2u);
    EXPECT_EQ(manifest.max_bytes, 0u);
    EXPECT_GT(manifest.total_bytes, 0u);
    // Most recent first; keys carry the config provenance.
    EXPECT_GT(manifest.entries[0].last_use, manifest.entries[1].last_use);
    EXPECT_NE(manifest.entries[0].key.find("mu_sst=0.25"), std::string::npos)
        << manifest.entries[0].key;
    for (const Kernel_cache_entry_info& entry : manifest.entries) {
        EXPECT_GT(entry.bytes, 0u);
        EXPECT_NE(entry.key.find("cellsync-kernel-v3"), std::string::npos);
    }

    // A disk hit from a fresh instance bumps the entry's recency.
    config.mu_sst = 0.15;
    Kernel_cache reader(dir);
    reader.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    manifest = reader.manifest();
    ASSERT_EQ(manifest.entries.size(), 2u);
    EXPECT_EQ(manifest.entries[0].hash, first_hash);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, LruEvictionEnforcesSizeCap) {
    const std::string dir = fresh_dir("lru");
    const Smooth_volume_model vm;
    Cell_cycle_config config;

    // Size one entry, then cap the cache so only one fits.
    std::uint64_t entry_bytes = 0;
    {
        Kernel_cache sizing(dir);
        sizing.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
        entry_bytes = sizing.manifest().total_bytes;
        ASSERT_GT(entry_bytes, 0u);
    }
    Kernel_cache_limits limits;
    limits.max_disk_bytes = entry_bytes + entry_bytes / 2;
    Kernel_cache cache(dir, limits);

    // Touch the first entry (disk hit), then add a second: the cap forces
    // the older entry out.
    cache.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    Cell_cycle_config second = config;
    second.mu_sst = 0.25;
    cache.get_or_build(second, vm, {0.0, 30.0}, tiny_options());

    EXPECT_EQ(cache.stats().evictions, 1u);
    const Kernel_cache_manifest manifest = cache.manifest();
    ASSERT_EQ(manifest.entries.size(), 1u);
    EXPECT_NE(manifest.entries[0].key.find("mu_sst=0.25"), std::string::npos)
        << "the LRU entry, not the fresh one, must be evicted";
    EXPECT_LE(manifest.total_bytes, limits.max_disk_bytes);

    // The evicted tuple is gone from disk: a fresh instance re-simulates.
    Kernel_cache after(dir, limits);
    after.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    EXPECT_EQ(after.stats().builds, 1u);
    EXPECT_EQ(after.stats().disk_hits, 0u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, OversizedEntryStillCachesBestEffort) {
    const std::string dir = fresh_dir("oversized");
    Kernel_cache_limits limits;
    limits.max_disk_bytes = 1;  // smaller than any kernel
    Kernel_cache cache(dir, limits);
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    cache.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    // The just-stored entry is exempt from its own eviction pass: caching
    // beats thrashing when a single kernel exceeds the cap.
    EXPECT_EQ(cache.manifest().entries.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    Kernel_cache reader(dir, limits);
    reader.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    EXPECT_EQ(reader.stats().disk_hits, 1u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, ReadOnlyModeServesDiskWithoutWriting) {
    const std::string dir = fresh_dir("readonly");
    const Smooth_volume_model vm;
    Cell_cycle_config config;
    {
        Kernel_cache owner(dir);
        owner.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    }
    const auto manifest_before = std::filesystem::last_write_time(
        Kernel_cache::manifest_path(dir));
    std::size_t files_before = 0;
    for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator(dir)) {
        ++files_before;
    }

    Kernel_cache_limits limits;
    limits.read_only = true;
    limits.max_disk_bytes = 1;  // would evict everything if enforced
    Kernel_cache fleet(dir, limits);

    // A cached tuple is served from disk...
    fleet.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    EXPECT_EQ(fleet.stats().disk_hits, 1u);
    EXPECT_EQ(fleet.stats().builds, 0u);

    // ...a miss simulates but is not persisted...
    Cell_cycle_config other = config;
    other.mu_sst = 0.25;
    fleet.get_or_build(other, vm, {0.0, 30.0}, tiny_options());
    EXPECT_EQ(fleet.stats().builds, 1u);
    EXPECT_EQ(fleet.stats().evictions, 0u);

    // ...and the directory is untouched: same files, manifest unmodified.
    std::size_t files_after = 0;
    for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator(dir)) {
        ++files_after;
    }
    EXPECT_EQ(files_after, files_before);
    EXPECT_EQ(std::filesystem::last_write_time(Kernel_cache::manifest_path(dir)),
              manifest_before);

    // The unpersisted miss still memoizes in memory.
    fleet.get_or_build(other, vm, {0.0, 30.0}, tiny_options());
    EXPECT_EQ(fleet.stats().memory_hits, 1u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, ReadOnlyModeToleratesMissingDirectory) {
    const std::string dir = fresh_dir("readonly_missing") + "/nested/absent";
    Kernel_cache_limits limits;
    limits.read_only = true;
    // A writable cache would create the directory; read-only must accept
    // whatever is (not) there and fall back to simulation.
    Kernel_cache cache(dir, limits);
    const Smooth_volume_model vm;
    const auto kernel = cache.get_or_build(Cell_cycle_config{}, vm, {0.0, 30.0},
                                           tiny_options());
    EXPECT_EQ(kernel->time_count(), 2u);
    EXPECT_EQ(cache.stats().builds, 1u);
}

TEST(KernelCache, AsyncRequestsForOneKeyShareOneResolution) {
    Kernel_cache cache;
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};

    // Issue two requests before resolving either: the second joins the
    // first's in-flight state (counted as a memory hit at call time).
    Kernel_cache::Async_request first =
        cache.get_or_build_async(config, vm, times, tiny_options());
    Kernel_cache::Async_request second =
        cache.get_or_build_async(config, vm, times, tiny_options());
    ASSERT_TRUE(first.valid());
    ASSERT_TRUE(second.valid());
    EXPECT_EQ(cache.stats().builds, 0u);  // deferred: nothing ran yet

    const auto from_second = second.get();  // whoever calls get() first executes
    const auto from_first = first.get();
    EXPECT_EQ(from_first.get(), from_second.get());
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().memory_hits, 1u);

    // A request issued after completion is an ordinary memory hit.
    const auto third = cache.get_or_build_async(config, vm, times, tiny_options()).get();
    EXPECT_EQ(third.get(), from_first.get());
    EXPECT_EQ(cache.stats().memory_hits, 2u);
    EXPECT_EQ(cache.stats().builds, 1u);
}

TEST(KernelCache, DroppedAsyncRequestDoesNotPoisonLaterLookups) {
    Kernel_cache cache;
    const Vector times{0.0, 30.0};
    {
        // Issue a request and abandon it without get(); its volume model
        // goes out of scope. The abandoned in-flight entry must stay
        // inert: requests carry their own inputs, so nothing dangles.
        const Smooth_volume_model ephemeral;
        Kernel_cache::Async_request dropped = cache.get_or_build_async(
            Cell_cycle_config{}, ephemeral, times, tiny_options());
        EXPECT_TRUE(dropped.valid());
    }
    const Smooth_volume_model vm;
    const auto kernel = cache.get_or_build(Cell_cycle_config{}, vm, times, tiny_options());
    EXPECT_EQ(kernel->time_count(), 2u);
    EXPECT_EQ(cache.stats().builds, 1u);
    // The later caller joined the abandoned entry (counted as a memory
    // hit at call time) and then performed the resolution itself with
    // its own, live inputs.
    EXPECT_EQ(cache.stats().memory_hits, 1u);
}

TEST(KernelCache, AsyncGetBlocksJoinersUntilTheExecutorFinishes) {
    Kernel_cache cache;
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0, 60.0};
    Kernel_build_options options = tiny_options();
    options.n_cells = 20000;  // big enough that the join genuinely waits

    Kernel_cache::Async_request a = cache.get_or_build_async(config, vm, times, options);
    Kernel_cache::Async_request b = cache.get_or_build_async(config, vm, times, options);
    std::shared_ptr<const Kernel_grid> from_thread;
    std::thread joiner([&] { from_thread = b.get(); });
    const auto direct = a.get();
    joiner.join();
    ASSERT_NE(from_thread, nullptr);
    EXPECT_EQ(direct.get(), from_thread.get());
    EXPECT_EQ(cache.stats().builds, 1u);
}

/// Resolve `request` the way a task graph does: lookup, the chunks in
/// reverse order over three threads, publish.
std::shared_ptr<const Kernel_grid> resolve_in_steps(Kernel_cache::Async_request& request) {
    request.lookup();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 3; ++t) {
        threads.emplace_back([&request, t] {
            for (std::size_t k = Kernel_cache::Async_request::chunk_count(); k-- > 0;) {
                if (k % 3 == t) request.run_chunk(k);
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    return request.publish();
}

TEST(KernelCache, StepwiseResolutionMatchesGetAndServesDiskHitsAtLookup) {
    const std::string dir = fresh_dir("stepwise");
    const Cell_cycle_config config;
    const Linear_volume_model vm;
    const Vector times{0.0, 30.0, 75.0};
    {
        Kernel_cache cache(dir);
        Kernel_cache::Async_request request =
            cache.get_or_build_async(config, vm, times, tiny_options());
        const auto kernel = resolve_in_steps(request);
        expect_bit_identical(*kernel, build_kernel(config, vm, times, tiny_options()));
        EXPECT_EQ(cache.stats().builds, 1u);
        // Publishing again (or from a joiner issued later) returns the
        // same grid without another build.
        EXPECT_EQ(request.publish().get(), kernel.get());
        EXPECT_EQ(cache.get_or_build(config, vm, times, tiny_options()).get(), kernel.get());
        EXPECT_EQ(cache.stats().builds, 1u);
    }
    Kernel_cache reader(dir);
    Kernel_cache::Async_request request =
        reader.get_or_build_async(config, vm, times, tiny_options());
    request.lookup();
    EXPECT_EQ(reader.stats().disk_hits, 1u);  // served at lookup, before any chunk
    const auto kernel = resolve_in_steps(request);
    expect_bit_identical(*kernel, build_kernel(config, vm, times, tiny_options()));
    EXPECT_EQ(reader.stats().builds, 0u);
    EXPECT_THROW(request.run_chunk(Kernel_cache::Async_request::chunk_count()),
                 std::out_of_range);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, ReadOnlyMissBuildsInStepsWithoutWriting) {
    const std::string dir = fresh_dir("readonly_miss");
    std::filesystem::create_directories(dir);
    Kernel_cache_limits limits;
    limits.read_only = true;
    Kernel_cache fleet(dir, limits);
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    Kernel_cache::Async_request request =
        fleet.get_or_build_async(config, vm, times, tiny_options());
    const auto kernel = resolve_in_steps(request);
    expect_bit_identical(*kernel, build_kernel(config, vm, times, tiny_options()));
    EXPECT_EQ(fleet.stats().builds, 1u);
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    EXPECT_EQ(fleet.get_or_build(config, vm, times, tiny_options()).get(), kernel.get());
    EXPECT_EQ(fleet.stats().memory_hits, 1u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, JoinerPublishWaitsForTheClaimedChunks) {
    Kernel_cache cache;
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0, 60.0};
    Kernel_cache::Async_request a = cache.get_or_build_async(config, vm, times, tiny_options());
    Kernel_cache::Async_request b = cache.get_or_build_async(config, vm, times, tiny_options());
    a.lookup();
    b.lookup();  // finds the resolution claimed: joins it
    b.run_chunk(0);  // a joiner's chunks do nothing
    std::shared_ptr<const Kernel_grid> from_joiner;
    std::thread joiner([&] { from_joiner = b.publish(); });
    for (std::size_t k = 0; k < Kernel_cache::Async_request::chunk_count(); ++k) {
        a.run_chunk(k);
    }
    const auto from_claimer = a.publish();
    joiner.join();
    EXPECT_EQ(from_joiner.get(), from_claimer.get());
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_EQ(cache.stats().memory_hits, 1u);
}

TEST(KernelCache, DroppedClaimIsTakenOverByAWaitingJoiner) {
    // A request that claimed a build and is destroyed before publishing
    // (an unwound graph) hands the claim back: the joiner blocked in
    // publish() resolves the key itself.
    Kernel_cache cache;
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    std::optional<Kernel_cache::Async_request> joined;
    std::shared_ptr<const Kernel_grid> from_joiner;
    std::thread waiter;
    {
        Kernel_cache::Async_request claimer =
            cache.get_or_build_async(config, vm, times, tiny_options());
        joined.emplace(cache.get_or_build_async(config, vm, times, tiny_options()));
        claimer.lookup();
        claimer.run_chunk(3);
        waiter = std::thread([&] { from_joiner = joined->publish(); });
    }
    waiter.join();
    ASSERT_NE(from_joiner, nullptr);
    expect_bit_identical(*from_joiner, build_kernel(config, vm, times, tiny_options()));
    EXPECT_EQ(cache.stats().builds, 1u);
}

/// A model whose relative volume throws for every cell: a chunk of a
/// build fails inside the simulation.
class Throwing_volume_model final : public Volume_model {
  public:
    double relative_volume(double, double) const override {
        throw std::runtime_error("volume model failure");
    }
    double derivative(double, double) const override { return 0.0; }
    std::string name() const override { return "throwing"; }
};

TEST(KernelCache, ChunkErrorReachesEveryRequestAndIsNotCached) {
    Kernel_cache cache;
    const Throwing_volume_model vm;
    const Vector times{0.0, 30.0};
    Kernel_cache::Async_request a =
        cache.get_or_build_async(Cell_cycle_config{}, vm, times, tiny_options());
    Kernel_cache::Async_request b =
        cache.get_or_build_async(Cell_cycle_config{}, vm, times, tiny_options());
    a.lookup();
    for (std::size_t k = 0; k < Kernel_cache::Async_request::chunk_count(); ++k) {
        EXPECT_NO_THROW(a.run_chunk(k));  // kept for publish()
    }
    EXPECT_THROW(a.publish(), std::runtime_error);
    EXPECT_THROW(b.publish(), std::runtime_error);
    EXPECT_EQ(cache.stats().builds, 0u);
    // The failed resolution left nothing in flight: a new request retries.
    EXPECT_THROW(cache.get_or_build(Cell_cycle_config{}, vm, times, tiny_options()),
                 std::runtime_error);
}

// A pre-upgrade cache directory: kernel CSVs + sidecars, as written by
// the versions that stored entries in the CSV format.
std::string make_legacy_entry(const std::string& dir, const Cell_cycle_config& config,
                              const Volume_model& vm, const Vector& times,
                              const Kernel_build_options& options) {
    std::filesystem::create_directories(dir);
    const std::string key = Kernel_cache::cache_key(config, vm, times, options);
    const std::string hash = Kernel_cache::key_hash(key);
    const Kernel_grid kernel = build_kernel(config, vm, times, options);
    write_kernel_file(dir + "/kernel_" + hash + ".csv", kernel, Kernel_format::csv);
    std::ofstream sidecar(dir + "/kernel_" + hash + ".key", std::ios::binary);
    sidecar << key;
    return hash;
}

TEST(KernelCache, LegacyCsvEntryServedAndMigratedToBinary) {
    const std::string dir = fresh_dir("legacy_migrate");
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    const std::string hash = make_legacy_entry(dir, config, vm, times, tiny_options());
    const Kernel_grid reference = build_kernel(config, vm, times, tiny_options());

    Kernel_cache cache(dir);
    const auto served = cache.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(cache.stats().disk_hits, 1u);
    EXPECT_EQ(cache.stats().builds, 0u);
    expect_bit_identical(*served, reference);

    // The touch migrated the entry: binary in place, CSV gone, same
    // sidecar, and the manifest accounts the new (smaller) footprint.
    EXPECT_TRUE(std::filesystem::exists(dir + "/kernel_" + hash + ".bin"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/kernel_" + hash + ".csv"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/kernel_" + hash + ".key"));
    const Kernel_cache_manifest manifest = cache.manifest();
    ASSERT_EQ(manifest.entries.size(), 1u);
    std::uint64_t on_disk = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().filename().string().rfind("kernel_", 0) == 0) {
            on_disk += std::filesystem::file_size(entry.path());
        }
    }
    EXPECT_EQ(manifest.entries[0].bytes, on_disk);

    // The migrated entry keeps serving from a fresh instance.
    Kernel_cache reader(dir);
    const auto reloaded = reader.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(reader.stats().disk_hits, 1u);
    expect_bit_identical(*reloaded, reference);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, TornMigrationBinaryFallsBackToLegacyCsv) {
    const std::string dir = fresh_dir("torn_migration");
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    const std::string hash = make_legacy_entry(dir, config, vm, times, tiny_options());
    // A migration killed mid-write leaves a truncated .bin next to the
    // still-valid CSV; the cache must serve the CSV (no rebuild) and
    // complete the migration over the torn file.
    {
        std::ofstream torn(dir + "/kernel_" + hash + ".bin", std::ios::binary);
        torn << "cellsync-kernel-bin-v1\n\x01";
    }

    Kernel_cache cache(dir);
    const auto served = cache.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(cache.stats().disk_hits, 1u);
    EXPECT_EQ(cache.stats().builds, 0u);
    expect_bit_identical(*served, build_kernel(config, vm, times, tiny_options()));
    EXPECT_FALSE(std::filesystem::exists(dir + "/kernel_" + hash + ".csv"));

    // The rewritten binary is complete: a fresh instance loads it.
    Kernel_cache reader(dir);
    reader.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(reader.stats().disk_hits, 1u);
    EXPECT_EQ(reader.stats().builds, 0u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, InterruptedMigrationLeftoverCsvIsCleanedUp) {
    const std::string dir = fresh_dir("leftover_csv");
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    const std::string hash = make_legacy_entry(dir, config, vm, times, tiny_options());
    // A migration killed after the binary landed but before the CSV was
    // removed leaves both files; the next writable touch must finish the
    // cleanup (and re-account the entry's bytes), not carry the orphan
    // forever.
    write_kernel_file(dir + "/kernel_" + hash + ".bin",
                      build_kernel(config, vm, times, tiny_options()),
                      Kernel_format::binary);

    Kernel_cache cache(dir);
    cache.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(cache.stats().disk_hits, 1u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/kernel_" + hash + ".bin"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/kernel_" + hash + ".csv"));
    const Kernel_cache_manifest manifest = cache.manifest();
    ASSERT_EQ(manifest.entries.size(), 1u);
    EXPECT_EQ(manifest.entries[0].bytes,
              std::filesystem::file_size(dir + "/kernel_" + hash + ".bin") +
                  std::filesystem::file_size(dir + "/kernel_" + hash + ".key"));
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, ReadOnlyCacheServesLegacyCsvWithoutMigrating) {
    const std::string dir = fresh_dir("legacy_readonly");
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    const std::string hash = make_legacy_entry(dir, config, vm, times, tiny_options());

    Kernel_cache_limits limits;
    limits.read_only = true;
    Kernel_cache fleet(dir, limits);
    const auto served = fleet.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(fleet.stats().disk_hits, 1u);
    EXPECT_EQ(fleet.stats().builds, 0u);
    expect_bit_identical(*served, build_kernel(config, vm, times, tiny_options()));

    // Fleet mode never writes: the CSV entry stays, nothing binary
    // appears, no manifest is created.
    EXPECT_TRUE(std::filesystem::exists(dir + "/kernel_" + hash + ".csv"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/kernel_" + hash + ".bin"));
    EXPECT_FALSE(std::filesystem::exists(Kernel_cache::manifest_path(dir)));
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, LruEvictionRemovesLegacyCsvEntries) {
    const std::string dir = fresh_dir("legacy_evict");
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    Cell_cycle_config old_config;
    old_config.mu_sst = 0.25;
    const std::string legacy_hash =
        make_legacy_entry(dir, old_config, vm, times, tiny_options());

    // A tight cap forces the never-touched legacy entry out when a new
    // (binary) entry lands; both of its files must disappear.
    Kernel_cache_limits limits;
    limits.max_disk_bytes = 1;
    Kernel_cache cache(dir, limits);
    cache.get_or_build(Cell_cycle_config{}, vm, times, tiny_options());
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(std::filesystem::exists(dir + "/kernel_" + legacy_hash + ".csv"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/kernel_" + legacy_hash + ".key"));
    EXPECT_EQ(cache.manifest().entries.size(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, EntryWriteFailureSkipsTheSidecar) {
    const std::string dir = fresh_dir("write_failure");
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    const Vector times{0.0, 30.0};
    const std::string key = Kernel_cache::cache_key(config, vm, times, tiny_options());
    const std::string hash = Kernel_cache::key_hash(key);
    // A directory squatting on the entry path makes the kernel write fail
    // (stands in for a full disk). The cache must degrade to memory-only
    // for this entry — in particular it must NOT write the sidecar commit
    // marker, which would publish a corrupt/absent kernel as valid.
    std::filesystem::create_directories(dir + "/kernel_" + hash + ".bin");

    Kernel_cache cache(dir);
    const auto kernel = cache.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(kernel->time_count(), 2u);
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_FALSE(std::filesystem::exists(dir + "/kernel_" + hash + ".key"));

    // A fresh instance sees no committed entry and rebuilds.
    Kernel_cache reader(dir);
    reader.get_or_build(config, vm, times, tiny_options());
    EXPECT_EQ(reader.stats().builds, 1u);
    EXPECT_EQ(reader.stats().disk_hits, 0u);
    std::filesystem::remove_all(dir);
}

TEST(KernelCache, MissingManifestIsRebuiltFromSidecars) {
    const std::string dir = fresh_dir("rebuild");
    const Cell_cycle_config config;
    const Smooth_volume_model vm;
    {
        Kernel_cache cache(dir);
        cache.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    }
    std::filesystem::remove(Kernel_cache::manifest_path(dir));
    Kernel_cache cache(dir);
    const Kernel_cache_manifest manifest = cache.manifest();
    ASSERT_EQ(manifest.entries.size(), 1u);
    EXPECT_GT(manifest.entries[0].bytes, 0u);
    EXPECT_NE(manifest.entries[0].key.find("cellsync-kernel-v3"), std::string::npos);
    // The rebuilt manifest still serves the disk entry.
    cache.get_or_build(config, vm, {0.0, 30.0}, tiny_options());
    EXPECT_EQ(cache.stats().disk_hits, 1u);
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cellsync
