#include "core/experiment_runner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>

#include "core/batch.h"
#include "core/task_graph.h"
#include "core/telemetry.h"
#include "core/trace.h"
#include "core/worker_pool.h"
#include "numerics/fnv.h"
#include "population/synchrony.h"
#include "spline/spline_basis.h"

namespace cellsync {

namespace {

/// Condition names as used downstream: an empty name defaults to its
/// positional "conditionN" label.
std::string resolved_condition_name(const Experiment_condition& condition, std::size_t index) {
    return condition.name.empty() ? ("condition" + std::to_string(index)) : condition.name;
}

void validate_spec(const Experiment_spec& spec) {
    if (spec.conditions.empty()) {
        throw std::invalid_argument("run_experiment: no conditions");
    }
    // Duplicate names would silently merge two conditions under one label:
    // the second would overwrite the first's warm-start lambdas and the
    // caller could not tell their results apart. Reject them up front.
    for (std::size_t a = 0; a < spec.conditions.size(); ++a) {
        const std::string name_a = resolved_condition_name(spec.conditions[a], a);
        for (std::size_t b = a + 1; b < spec.conditions.size(); ++b) {
            if (name_a == resolved_condition_name(spec.conditions[b], b)) {
                throw std::invalid_argument(
                    "run_experiment: duplicate condition name '" + name_a +
                    "' (conditions " + std::to_string(a) + " and " + std::to_string(b) +
                    "); give each condition a distinct name");
            }
        }
    }
    if (spec.basis_size < 4) {
        throw std::invalid_argument("run_experiment: basis_size too small");
    }
    if (spec.warm_start_lambda &&
        (spec.warm_grid_points < 2 || !(spec.warm_grid_decades > 0.0))) {
        throw std::invalid_argument(
            "run_experiment: warm start needs >= 2 grid points and positive decades");
    }
    for (const Experiment_condition& condition : spec.conditions) {
        if (condition.panel.empty()) {
            throw std::invalid_argument("run_experiment: condition '" + condition.name +
                                        "' has an empty panel");
        }
        const Vector& times = condition.panel.front().times;
        for (const Measurement_series& series : condition.panel) {
            series.validate();
            if (series.times != times) {
                throw std::invalid_argument(
                    "run_experiment: series '" + series.label + "' of condition '" +
                    condition.name + "' is not on the condition's time grid");
            }
        }
    }
}

/// Log-spaced grid of `points` lambdas centered (in log space) on
/// `center`, spanning +/- `decades`.
Vector warm_grid(double center, std::size_t points, double decades) {
    return default_lambda_grid(points, center * std::pow(10.0, -decades),
                               center * std::pow(10.0, decades));
}

/// Profiles are scored on the first 200 points of the standard 201-point
/// output grid — phi = 0, 0.005, ..., 0.995. Dropping the phi = 1 sample
/// keeps the grid circularly open (phi = 0 and 1 are the same angle and
/// must not be double-counted), and using the output grid's own points
/// lets `cellsync_deconvolve report` reproduce these scores exactly from
/// a saved profile CSV. The grid's points on the unit circle are built
/// once per run, so scoring a profile evaluates no trigonometry.
struct Score_grid {
    Vector phi = [] {
        Vector grid = linspace(0.0, 1.0, 201);
        grid.pop_back();
        return grid;
    }();
    Phase_circle circle = phase_circle(phi);
};

/// Per-gene warm-started lambda grids for condition `c`: narrowed around
/// each gene's selection in the most recent condition where it succeeded
/// (empty grid = fall back to the shared grid). Shared verbatim by both
/// schedules so their per-gene inputs are identical.
std::vector<Vector> warm_grids_for(const Experiment_spec& spec, std::size_t c,
                                   const std::map<std::string, double>& previous_lambda) {
    const Experiment_condition& condition = spec.conditions[c];
    std::vector<Vector> grids(condition.panel.size());
    if (spec.warm_start_lambda && spec.batch.select_lambda && c > 0) {
        for (std::size_t g = 0; g < condition.panel.size(); ++g) {
            const auto it = previous_lambda.find(condition.panel[g].label);
            if (it != previous_lambda.end()) {
                grids[g] = warm_grid(it->second, spec.warm_grid_points,
                                     spec.warm_grid_decades);
            }
        }
    }
    return grids;
}

/// Record the condition's selected lambdas (feeding later conditions'
/// warm starts) and score every successful profile's synchrony. `basis`
/// is the condition's design basis, shared by all of its estimates.
void score_condition(Condition_result& out, const Basis& basis, const Score_grid& grid,
                     std::map<std::string, double>& previous_lambda) {
    // Shared by both schedules, once per condition — the one place the
    // experiment-level progress counters can tick identically for the
    // sequential and pipelined paths.
    static telemetry::Counter& conditions_done = telemetry::counter("experiment.conditions_done");
    static telemetry::Counter& genes_done = telemetry::counter("experiment.genes_done");
    static telemetry::Counter& genes_failed = telemetry::counter("experiment.genes_failed");
    conditions_done.add();
    genes_done.add(out.genes.size());
    genes_failed.add(static_cast<std::uint64_t>(
        std::count_if(out.genes.begin(), out.genes.end(),
                      [](const Batch_entry& entry) { return !entry.estimate.has_value(); })));

    for (const Batch_entry& entry : out.genes) {
        if (entry.estimate.has_value()) previous_lambda[entry.label] = entry.lambda;
    }

    // One grid design per condition: each profile is then a single
    // mat-vec, bit-identical to estimate.sample(score_phi) (the same
    // increasing-index accumulation per grid point).
    const Matrix score_design = basis.design_matrix(grid.phi);
    for (const Batch_entry& entry : out.genes) {
        if (!entry.estimate.has_value()) continue;
        const Vector values = score_design * entry.estimate->coefficients();
        Gene_synchrony scores;
        scores.label = entry.label;
        try {
            scores.order_parameter = circle_order_parameter(grid.circle, values);
            scores.entropy = profile_entropy(values);
        } catch (const std::invalid_argument&) {
            continue;  // no positive mass: synchrony is undefined, skip
        }
        const auto peak = std::max_element(values.begin(), values.end());
        scores.peak_phi = grid.phi[static_cast<std::size_t>(peak - values.begin())];
        out.synchrony.push_back(std::move(scores));
    }
    if (!out.synchrony.empty()) {
        for (const Gene_synchrony& s : out.synchrony) {
            out.mean_order_parameter += s.order_parameter;
            out.mean_entropy += s.entropy;
        }
        const double n = static_cast<double>(out.synchrony.size());
        out.mean_order_parameter /= n;
        out.mean_entropy /= n;
    }
}

/// The reference schedule: condition k completes before k+1 starts.
Experiment_result run_sequential(const Experiment_spec& spec,
                                 const Volume_model& volume_model, Kernel_cache& cache) {
    const Score_grid score_grid;

    Experiment_result result;
    result.conditions.reserve(spec.conditions.size());
    // label -> lambda selected for that gene in the most recent condition
    // where it succeeded; feeds the warm-started grids.
    std::map<std::string, double> previous_lambda;
    // Conditions resolving to the same cached kernel share one engine (the
    // cache key covers the full cell-cycle config, so an identical grid
    // pointer implies an identical design): the kernel matrix, penalty
    // Gram, and constraint reduction are computed once per distinct
    // kernel, not once per condition.
    std::map<const Kernel_grid*, std::unique_ptr<Batch_engine>> engines;

    const bool tracing = telemetry::Trace_recorder::instance().enabled();
    for (std::size_t c = 0; c < spec.conditions.size(); ++c) {
        const Experiment_condition& condition = spec.conditions[c];
        Condition_result out;
        out.name = resolved_condition_name(condition, c);

        {
            const telemetry::Trace_span kernel_span(
                "experiment.kernel", "experiment",
                tracing ? telemetry::arg("condition", out.name) : std::string());
            out.kernel = cache.get_or_build(condition.cell_cycle, volume_model,
                                            condition.panel.front().times, spec.kernel);
        }

        std::unique_ptr<Batch_engine>& engine_slot = engines[out.kernel.get()];
        if (!engine_slot) {
            Batch_engine_options engine_options;
            engine_options.threads = spec.threads;
            engine_options.constraints = spec.batch.deconvolution.constraints;
            engine_slot = std::make_unique<Batch_engine>(
                std::make_shared<Natural_spline_basis>(spec.basis_size), *out.kernel,
                condition.cell_cycle, engine_options);
        }
        const Batch_engine& engine = *engine_slot;

        {
            const telemetry::Trace_span solve_span(
                "experiment.solve", "experiment",
                tracing ? telemetry::args_join(
                              telemetry::arg("condition", out.name),
                              telemetry::arg("genes",
                                             static_cast<std::int64_t>(condition.panel.size())))
                        : std::string());
            out.genes = engine.run_with_grids(condition.panel,
                                              warm_grids_for(spec, c, previous_lambda),
                                              spec.batch);
        }
        {
            const telemetry::Trace_span score_span(
                "experiment.score", "experiment",
                tracing ? telemetry::arg("condition", out.name) : std::string());
            score_condition(out, engine.deconvolver().basis(), score_grid, previous_lambda);
        }
        result.conditions.push_back(std::move(out));
    }
    return result;
}

/// The pipelined schedule: one Task_graph per run, executed by one
/// Worker_pool. Per condition c —
///
///   lookup_c ──► kernel_chunks_c ──► kernel_publish_c ──► prep_c ──► solve_c ──► score_c
///                (chunk_count tasks)                        ▲        (a task       │
///                                                           │        per gene)     │
///                                                           └─── score_{c-1} ◄─────┘
///
/// Every lookup node is a root: disk hits are served there and misses
/// claim a founder-chunked build, whose chunks then spread over every
/// free worker. The prep/score chain carries the warm-start state exactly
/// as the sequential schedule does, which is why the two are
/// bit-identical; the kernel is bit-identical whichever workers ran its
/// chunks, because the chunk count is a constant.
Experiment_result run_pipelined(const Experiment_spec& spec,
                                const Volume_model& volume_model, Kernel_cache& cache) {
    const std::size_t n = spec.conditions.size();
    const Score_grid score_grid;

    Experiment_result result;
    result.conditions.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
        result.conditions[c].name = resolved_condition_name(spec.conditions[c], c);
    }

    // Issue every condition's kernel request up front, in condition order
    // on this thread: distinct keys become independent resolutions,
    // repeated keys join the first request's in-flight resolution — so
    // the cache counters match the sequential schedule exactly. A
    // condition repeating an earlier condition's key never looks up; its
    // publish node waits on that condition's publish node instead, so no
    // worker ever blocks on a build that is still queued behind it.
    std::vector<Kernel_cache::Async_request> requests;
    requests.reserve(n);
    std::vector<std::size_t> first_request(n);
    std::map<std::string, std::size_t> first_with_key;
    for (std::size_t c = 0; c < n; ++c) {
        const Experiment_condition& condition = spec.conditions[c];
        const Vector& times = condition.panel.front().times;
        requests.push_back(
            cache.get_or_build_async(condition.cell_cycle, volume_model, times, spec.kernel));
        first_request[c] = first_with_key
                               .emplace(Kernel_cache::cache_key(condition.cell_cycle,
                                                                volume_model, times,
                                                                spec.kernel),
                                        c)
                               .first->second;
    }

    /// Solve inputs produced by prep_c, consumed by solve_c's gene tasks.
    struct Condition_work {
        std::shared_ptr<const Deconvolver> deconvolver;
        Batch_options resolved;
        std::vector<Vector> grids;
    };
    std::vector<Condition_work> work(n);
    std::map<std::string, double> previous_lambda;
    // Same design sharing as the sequential engines map; only prep nodes
    // touch it, and those are chained, so no synchronization is needed.
    std::map<const Kernel_grid*, std::shared_ptr<const Design_artifacts>> designs;

    Task_graph graph;
    std::vector<Task_graph::Node_id> lookup_nodes(n);
    std::vector<Task_graph::Node_id> publish_nodes(n);
    std::vector<Task_graph::Node_id> score_nodes(n);
    // Lookup nodes first, then each condition's chain in condition order.
    // Lowest-id-first claiming then runs condition c's solves and score
    // ahead of later conditions' chunks whenever both are ready, while
    // those chunks fill every worker the chain leaves idle.
    for (std::size_t c = 0; c < n; ++c) {
        lookup_nodes[c] = graph.add_node(
            "kernel_lookup:" + result.conditions[c].name, 1,
            [&requests, &first_request, c](std::size_t) {
                if (first_request[c] == c) requests[c].lookup();
            });
    }
    for (std::size_t c = 0; c < n; ++c) {
        const Task_graph::Node_id chunks = graph.add_node(
            "kernel_chunks:" + result.conditions[c].name,
            Kernel_cache::Async_request::chunk_count(),
            [&requests, c](std::size_t k) { requests[c].run_chunk(k); }, {lookup_nodes[c]});
        std::vector<Task_graph::Node_id> publish_deps = {chunks};
        if (first_request[c] != c) publish_deps.push_back(publish_nodes[first_request[c]]);
        publish_nodes[c] = graph.add_node(
            "kernel_publish:" + result.conditions[c].name, 1,
            [&result, &requests, c](std::size_t) {
                result.conditions[c].kernel = requests[c].publish();
            },
            std::move(publish_deps));
        std::vector<Task_graph::Node_id> prep_deps = {publish_nodes[c]};
        if (c > 0) prep_deps.push_back(score_nodes[c - 1]);
        const Task_graph::Node_id prep = graph.add_node(
            "prep:" + result.conditions[c].name, 1,
            [&spec, &result, &work, &designs, &previous_lambda, c](std::size_t) {
                Condition_result& out = result.conditions[c];
                std::shared_ptr<const Design_artifacts>& design =
                    designs[out.kernel.get()];
                if (!design) {
                    design = make_design_artifacts(
                        std::make_shared<Natural_spline_basis>(spec.basis_size),
                        *out.kernel, spec.conditions[c].cell_cycle,
                        spec.batch.deconvolution.constraints);
                }
                work[c].deconvolver = std::make_shared<const Deconvolver>(design);
                work[c].resolved = resolve_batch_options(*design, spec.batch);
                work[c].grids = warm_grids_for(spec, c, previous_lambda);
                out.genes.resize(spec.conditions[c].panel.size());
            },
            std::move(prep_deps));
        const Task_graph::Node_id solve = graph.add_node(
            "solve:" + result.conditions[c].name, spec.conditions[c].panel.size(),
            [&spec, &result, &work, c](std::size_t g) {
                const Condition_work& w = work[c];
                const Vector& grid =
                    w.grids[g].empty() ? w.resolved.lambda_grid : w.grids[g];
                result.conditions[c].genes[g] = deconvolve_one(
                    *w.deconvolver, spec.conditions[c].panel[g], grid, w.resolved);
            },
            {prep});
        score_nodes[c] = graph.add_node(
            "score:" + result.conditions[c].name, 1,
            [&result, &work, &score_grid, &previous_lambda, c](std::size_t) {
                score_condition(result.conditions[c], work[c].deconvolver->basis(), score_grid,
                                previous_lambda);
            },
            {solve});
    }

    Worker_pool pool(spec.threads);
    pool.run(graph);
    return result;
}

/// FNV-1a 64-bit over a gene label — the shard assignment hash.
std::uint64_t label_hash(const std::string& label) { return fnv1a64(label); }

}  // namespace

Experiment_result run_experiment(const Experiment_spec& spec,
                                 const Volume_model& volume_model, Kernel_cache& cache) {
    validate_spec(spec);
    const Kernel_cache_stats before = cache.stats();
    Experiment_result result = spec.schedule == Experiment_schedule::sequential
                                   ? run_sequential(spec, volume_model, cache)
                                   : run_pipelined(spec, volume_model, cache);
    result.cache_stats = cache.stats() - before;
    return result;
}

Experiment_result run_experiment(const Experiment_spec& spec,
                                 const Volume_model& volume_model) {
    Kernel_cache cache;
    return run_experiment(spec, volume_model, cache);
}

Experiment_spec shard_experiment(const Experiment_spec& spec, std::size_t shards,
                                 std::size_t shard_index) {
    if (shards == 0) {
        throw std::invalid_argument("shard_experiment: shards must be >= 1");
    }
    if (shard_index >= shards) {
        throw std::invalid_argument("shard_experiment: shard_index " +
                                    std::to_string(shard_index) + " out of range for " +
                                    std::to_string(shards) + " shards");
    }
    // Tag this process's metrics with its shard assignment so merged
    // dashboards can tell shard streams apart.
    telemetry::gauge("experiment.shard_count").set(static_cast<double>(shards));
    telemetry::gauge("experiment.shard_index").set(static_cast<double>(shard_index));
    if (shards == 1) return spec;
    Experiment_spec out = spec;
    out.conditions.clear();
    for (std::size_t c = 0; c < spec.conditions.size(); ++c) {
        const Experiment_condition& condition = spec.conditions[c];
        Experiment_condition kept = condition;
        // Pin the unsharded run's resolved name: dropping a fully
        // filtered condition shifts positions, and a positional
        // "conditionN" label that differed between shards would let
        // merge-results silently combine two different conditions.
        kept.name = resolved_condition_name(condition, c);
        kept.panel.clear();
        for (const Measurement_series& series : condition.panel) {
            if (label_hash(series.label) % shards == shard_index) {
                kept.panel.push_back(series);
            }
        }
        if (!kept.panel.empty()) out.conditions.push_back(std::move(kept));
    }
    return out;
}

}  // namespace cellsync
