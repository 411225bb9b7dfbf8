#include "core/batch_engine.h"

#include <stdexcept>

namespace cellsync {

Batch_engine::Batch_engine(std::shared_ptr<const Basis> basis, const Kernel_grid& kernel,
                           const Cell_cycle_config& config,
                           const Batch_engine_options& options)
    : Batch_engine(make_design_artifacts(std::move(basis), kernel, config,
                                         options.constraints),
                   options) {}

Batch_engine::Batch_engine(std::shared_ptr<const Design_artifacts> artifacts,
                           const Batch_engine_options& options)
    : deconvolver_(std::move(artifacts)), pool_(options.threads) {
    const Annotated_lock lock(run_mutex_);
    thread_count_ = pool_.thread_count();
}

Deconvolution_options Batch_engine::aligned(const Deconvolution_options& options) const {
    Deconvolution_options out = options;
    out.constraints = deconvolver_.artifacts()->constraint_options;
    return out;
}

std::vector<Batch_entry> Batch_engine::run(const std::vector<Measurement_series>& panel,
                                           const Batch_options& options) const {
    return run_with_grids(panel, std::vector<Vector>(panel.size()), options);
}

std::vector<Batch_entry> Batch_engine::run_with_grids(
    const std::vector<Measurement_series>& panel, const std::vector<Vector>& grids,
    const Batch_options& options) const {
    if (panel.empty()) throw std::invalid_argument("Batch_engine: empty panel");
    if (grids.size() != panel.size()) {
        throw std::invalid_argument("Batch_engine: one lambda grid per series required");
    }
    // The same normalization + per-gene task the pipelined experiment
    // runner spawns as task-graph nodes: results are identical by
    // construction whichever pool executes them.
    const Batch_options resolved = resolve_batch_options(artifacts(), options);

    std::vector<Batch_entry> out(panel.size());
    const Annotated_lock run_lock(run_mutex_);
    pool_.parallel_for(panel.size(), [&](std::size_t g) {
        const Vector& grid = grids[g].empty() ? resolved.lambda_grid : grids[g];
        out[g] = deconvolve_one(deconvolver_, panel[g], grid, resolved);
    });
    return out;
}

Lambda_selection Batch_engine::cross_validate(const Measurement_series& series,
                                              const Deconvolution_options& base_options,
                                              const Vector& lambda_grid, std::size_t folds,
                                              std::uint64_t seed) const {
    const Kfold_plan plan(deconvolver_, series, aligned(base_options), folds, seed);
    const Annotated_lock run_lock(run_mutex_);
    return plan.select(lambda_grid, &pool_);
}

Confidence_band Batch_engine::bootstrap(const Measurement_series& series,
                                        const Deconvolution_options& options,
                                        const Vector& phi_grid,
                                        const Bootstrap_options& bootstrap_options) const {
    const Annotated_lock run_lock(run_mutex_);
    return bootstrap_confidence_band(deconvolver_, series, aligned(options), phi_grid,
                                     bootstrap_options, pool_);
}

}  // namespace cellsync
