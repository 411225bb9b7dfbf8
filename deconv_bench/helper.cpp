// Companion binary of deconv_bench/run.py: seeded input generation and the
// single-thread traced pass.
//
//   deconv_bench_helper generate --out DIR --seed N --genes G --times LO:HI:N
//       --condition NAME,MU_SST,CYCLE_MINUTES [--condition ...]
//       [--format panel|records]
//     Writes truth.csv (every gene's single-cell profile on the 201-point
//     phi grid), one wide panel CSV per condition (<NAME>.csv, a `time`
//     column plus <gene> and <gene>_sigma columns) or, for `records`, the
//     long-form record log records.csv of the first condition, and
//     probe.csv (the first gene of the first condition as one series).
//
//   deconv_bench_helper trace --mode run|stream --seconds S --spans FILE
//       --out-traced STEM --out-plain STEM --cache-dir DIR [--fresh-cache]
//       [--lambda X]
//       run:    --condition NAME,PANEL_CSV,MU_SST,CYCLE_MINUTES [...]
//       stream: --records PATH --times LO:HI:N
//     Rebuilds what `cellsync_deconvolve run` / `stream` computes at CLI
//     defaults from the layers' public functions, on one thread, and
//     repeats it for S seconds: a traced warm-up pass, then untraced and
//     traced passes in turn. Each pass writes its profile CSVs to the stem
//     of its kind and appends one JSON line to FILE with its wall time,
//     its spans and its counts.
//
//   deconv_bench_helper calibrate --threads N --reps R
//     A fixed floating-point load on N threads that no repository code
//     takes part in; run.py times it between CLI invocations to measure
//     how fast the host is running at that moment.
//
//   deconv_bench_helper env
//     Prints the compiler and build type as one JSON object.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "biology/gene_profiles.h"
#include "core/batch.h"
#include "core/forward_model.h"
#include "core/telemetry.h"
#include "io/csv.h"
#include "io/expression_data.h"
#include "io/series_writer.h"
#include "io/stream_records.h"
#include "population/kernel_cache.h"
#include "population/synchrony.h"
#include "spline/spline_basis.h"
#include "stream/stream_session.h"

#ifndef DECONV_BENCH_BUILD_TYPE
#define DECONV_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace cellsync;
using telemetry::Clock;

// The CLI defaults this helper mirrors (tools/cellsync_deconvolve.cpp):
// 18 spline knots, a 15-point CV grid over 1e-7..1e1 with 5 folds, warm
// grids of 7 points one decade either side of the previous condition's
// choice, and lambda 1e-3 when CV is off.
constexpr std::size_t basis_size = 18;
constexpr std::size_t warm_grid_points = 7;
constexpr double warm_grid_decades = 1.0;
constexpr double default_lambda = 1e-3;

// Generator kernels deliberately differ from the CLI's defaults (100000
// cells, seed 20110605), so no run deconvolves with the exact kernel that
// made its data.
constexpr std::size_t generator_cells = 40000;

[[noreturn]] void fail(const std::string& message) {
    std::fprintf(stderr, "deconv_bench_helper: %s\n", message.c_str());
    std::exit(2);
}

std::vector<std::string> split(const std::string& text, char separator) {
    std::vector<std::string> parts;
    std::string part;
    std::istringstream in(text);
    while (std::getline(in, part, separator)) parts.push_back(part);
    return parts;
}

Vector parse_times(const std::string& spec) {
    const std::vector<std::string> parts = split(spec, ':');
    if (parts.size() != 3) fail("--times expects LO:HI:COUNT, got '" + spec + "'");
    return linspace(parse_strict_double(parts[0]), parse_strict_double(parts[1]),
                    static_cast<std::size_t>(parse_strict_uint64(parts[2])));
}

struct Condition_arg {
    std::string name;
    std::string path;  ///< panel CSV (trace --mode run only)
    Cell_cycle_config config;
};

/// NAME,MU_SST,CYCLE_MINUTES (generate) or NAME,PATH,MU_SST,CYCLE_MINUTES.
Condition_arg parse_condition(const std::string& text, bool with_path) {
    const std::vector<std::string> parts = split(text, ',');
    if (parts.size() != (with_path ? 4u : 3u)) fail("bad --condition '" + text + "'");
    Condition_arg condition;
    std::size_t next = 0;
    condition.name = parts[next++];
    if (with_path) condition.path = parts[next++];
    condition.config.mu_sst = parse_strict_double(parts[next++]);
    condition.config.mean_cycle_minutes = parse_strict_double(parts[next++]);
    return condition;
}

struct Args {
    std::map<std::string, std::string> values;
    std::vector<std::string> conditions;
    bool fresh_cache = false;

    std::string get(const std::string& key) const {
        const auto it = values.find(key);
        if (it == values.end()) fail("missing --" + key);
        return it->second;
    }
    bool has(const std::string& key) const { return values.count(key) > 0; }
};

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fresh-cache") {
            args.fresh_cache = true;
        } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
            if (arg == "--condition") args.conditions.emplace_back(argv[++i]);
            else args.values[arg.substr(2)] = argv[++i];
        } else {
            fail("unexpected argument '" + arg + "'");
        }
    }
    return args;
}

// ---------------------------------------------------------------------------
// generate
// ---------------------------------------------------------------------------

/// Single-cell profile of gene `g` of `genes`. The shape family rotates
/// with the gene index and the parameter that sets how hard a shape is to
/// recover (amplitude, pulse width, time to peak) is stratified over the
/// family's genes, so every panel holds the same mix of shapes and
/// difficulties and the recovery percentiles barely move with the seed.
Gene_profile make_profile(std::size_t g, std::size_t genes, Rng& rng) {
    const double strata = static_cast<double>(genes / 3 + 1);
    const double difficulty = (static_cast<double>(g / 3) + rng.uniform()) / strata;
    switch (g % 3) {
        case 0: {
            const double offset = rng.uniform(2.0, 5.0);
            return sinusoid_profile(offset, offset * (0.4 + 0.5 * difficulty), 1.0,
                                    rng.uniform(0.0, 6.283185307179586));
        }
        case 1:
            return pulse_profile(rng.uniform(0.5, 2.0), rng.uniform(3.0, 8.0),
                                 rng.uniform(0.3, 0.75), 0.12 + 0.13 * difficulty);
        default: {
            const double onset = rng.uniform(0.1, 0.25);
            const double peak_level = rng.uniform(5.0, 12.0);
            return ftsz_like_profile(onset, onset + 0.15 + 0.25 * difficulty, peak_level,
                                     rng.uniform(0.0, 0.2) * peak_level);
        }
    }
}

std::string gene_label(std::size_t g) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "g%04zu", g);
    return buffer;
}

void write_series(const std::string& path, const Measurement_series& series) {
    Table table;
    table.add_column("time", series.times);
    table.add_column("value", series.values);
    table.add_column("sigma", series.sigmas);
    write_csv_file(path, table);
}

void write_records(const std::string& path, const std::vector<Measurement_series>& panel) {
    std::ofstream out(path);
    if (!out) fail("cannot write '" + path + "'");
    out << "time,gene,value,sigma\n";
    char buffer[96];
    for (std::size_t m = 0; m < panel.front().size(); ++m) {
        for (const Measurement_series& series : panel) {
            std::snprintf(buffer, sizeof(buffer), "%.17g,%s,%.17g,%.17g\n", series.times[m],
                          series.label.c_str(), series.values[m], series.sigmas[m]);
            out << buffer;
        }
    }
    out.flush();
    if (!out) fail("write failed for '" + path + "'");
}

int cmd_generate(const Args& args) {
    const std::string out = args.get("out");
    const std::uint64_t seed = parse_strict_uint64(args.get("seed"));
    const std::size_t genes = static_cast<std::size_t>(parse_strict_uint64(args.get("genes")));
    const Vector times = parse_times(args.get("times"));
    if (args.conditions.empty()) fail("generate needs at least one --condition");
    const bool records = args.has("format") && args.get("format") == "records";
    std::filesystem::create_directories(out);

    Rng rng(seed);
    std::vector<Gene_profile> profiles;
    const Vector phi = linspace(0.0, 1.0, 201);
    Table truth;
    truth.add_column("phi", phi);
    for (std::size_t g = 0; g < genes; ++g) {
        profiles.push_back(make_profile(g, genes, rng));
        truth.add_column(gene_label(g), profiles.back().sample(phi));
    }
    write_csv_file(out + "/truth.csv", truth);

    Kernel_build_options generator;
    generator.n_cells = generator_cells;
    generator.seed = seed * 2 + 1;
    if (generator.seed == Kernel_build_options{}.seed) ++generator.seed;
    // Absolute noise (8% of the series' mean level): relative noise gives a
    // near-zero population value (an ftsZ-like gene at t = 0) a sigma at
    // the floor and a weight near 1e12, which makes the recovery tail
    // depend on the seed more than on the estimator.
    const Noise_model noise{Noise_type::absolute_gaussian, 0.08};
    const Smooth_volume_model volume;
    for (std::size_t c = 0; c < args.conditions.size(); ++c) {
        const Condition_arg condition = parse_condition(args.conditions[c], false);
        const Kernel_grid kernel = build_kernel(condition.config, volume, times, generator);
        std::vector<Measurement_series> panel;
        for (std::size_t g = 0; g < genes; ++g) {
            panel.push_back(
                forward_measurements_noisy(kernel, profiles[g].f, noise, rng, gene_label(g)));
        }
        if (c == 0) write_series(out + "/probe.csv", panel.front());
        if (records) {
            write_records(out + "/records.csv", panel);
            break;
        }
        Table table;
        table.add_column("time", times);
        for (const Measurement_series& series : panel) {
            table.add_column(series.label, series.values);
            table.add_column(series.label + "_sigma", series.sigmas);
        }
        write_csv_file(out + "/" + condition.name + ".csv", table);
    }
    return 0;
}

// ---------------------------------------------------------------------------
// trace: spans recorded around the calls into each layer
// ---------------------------------------------------------------------------

struct Span_record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  ///< index of the enclosing span, -1 for the root
};

/// Span store of one pass; a disabled recorder records nothing and reads
/// no clock, which is what the untraced passes run with.
class Recorder {
  public:
    explicit Recorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    const std::vector<Span_record>& spans() const { return spans_; }

    std::size_t open(const char* name) {
        const int parent = open_.empty() ? -1 : static_cast<int>(open_.back());
        spans_.push_back({name, Clock::now_ns(), 0, parent});
        open_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }
    void close(std::size_t index, const char* name) {
        spans_[index].end_ns = Clock::now_ns();
        spans_[index].name = name;
        open_.pop_back();
    }

  private:
    bool enabled_;
    std::vector<Span_record> spans_;
    std::vector<std::size_t> open_;
};

/// Scoped span; rename() relabels it before it closes (a kernel lookup is
/// a load or a build, known only after the call).
class Span {
  public:
    Span(Recorder& recorder, const char* name) : recorder_(recorder), name_(name) {
        if (recorder_.enabled()) index_ = recorder_.open(name);
    }
    ~Span() {
        if (recorder_.enabled()) recorder_.close(index_, name_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void rename(const char* name) { name_ = name; }

  private:
    Recorder& recorder_;
    const char* name_;
    std::size_t index_ = 0;
};

using Counts = std::map<std::string, double>;

/// Same bytes as the CLI's write_profiles_with_lambdas: `# lambda:` lines
/// at 17 digits, then the profile table.
void write_profiles_with_lambdas(const std::string& path, const Table& table,
                                 const std::vector<std::pair<std::string, double>>& lambdas) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open '" + path + "' for writing");
    for (const auto& [gene, lambda] : lambdas) {
        char buffer[48];
        std::snprintf(buffer, sizeof(buffer), "%.17g", lambda);
        out << "# lambda:" << gene << "=" << buffer << "\n";
    }
    write_csv(out, table);
    if (!out) throw std::runtime_error("write failed for '" + path + "'");
}

/// Kernel lookup through the cache, spanned as a build or a load.
std::shared_ptr<const Kernel_grid> resolve_kernel(Recorder& recorder, Kernel_cache& cache,
                                                  const Cell_cycle_config& config,
                                                  const Volume_model& volume,
                                                  const Vector& times) {
    Span span(recorder, "population.kernel_load");
    const std::size_t builds = cache.stats().builds;
    auto kernel = cache.get_or_build(config, volume, times, Kernel_build_options{});
    if (cache.stats().builds > builds) span.rename("population.kernel_build");
    return kernel;
}

void add_cache_counts(const Kernel_cache& cache, Counts& counts) {
    const Kernel_cache_stats stats = cache.stats();
    counts["kernel_builds"] = static_cast<double>(stats.builds);
    counts["kernel_disk_hits"] = static_cast<double>(stats.disk_hits);
}

struct Solved_gene {
    std::string label;
    Single_cell_estimate estimate;
    double lambda;
};

/// `run --condition ...` as run_experiment's pipelined schedule computes
/// it, condition by condition on this thread.
void run_pass(const Args& args, const std::vector<Condition_arg>& conditions,
              const std::string& stem, Recorder& recorder, Counts& counts) {
    const Span pass(recorder, "pass");
    const bool select_lambda = !args.has("lambda");
    std::vector<std::vector<Measurement_series>> panels;
    for (const Condition_arg& condition : conditions) {
        const Span span(recorder, "io.read");
        panels.push_back(panel_from_table(read_csv_file(condition.path)));
    }
    std::optional<Kernel_cache> cache;
    {
        const Span span(recorder, "population.cache_open");
        cache.emplace(args.get("cache-dir"));
    }

    Batch_options batch;
    batch.lambda_grid = default_lambda_grid(15, 1e-7, 1e1);
    if (!select_lambda) {
        batch.select_lambda = false;
        batch.deconvolution.lambda = parse_strict_double(args.get("lambda"));
    }
    const Smooth_volume_model volume;
    Vector score_phi = linspace(0.0, 1.0, 201);
    score_phi.pop_back();
    const Vector grid = linspace(0.0, 1.0, 201);
    std::map<std::string, double> previous_lambda;
    std::map<const Kernel_grid*, std::shared_ptr<const Design_artifacts>> designs;
    telemetry::Counter& qp_solves = telemetry::counter("qp.active_set.solves");

    for (std::size_t c = 0; c < conditions.size(); ++c) {
        const Condition_arg& condition = conditions[c];
        const std::vector<Measurement_series>& panel = panels[c];
        const auto kernel = resolve_kernel(recorder, *cache, condition.config, volume,
                                           panel.front().times);

        std::optional<Deconvolver> deconvolver;
        Batch_options resolved;
        {
            const Span span(recorder, "core.design");
            std::shared_ptr<const Design_artifacts>& design = designs[kernel.get()];
            if (!design) {
                design = make_design_artifacts(std::make_shared<Natural_spline_basis>(basis_size),
                                               *kernel, condition.config,
                                               batch.deconvolution.constraints);
            }
            deconvolver.emplace(design);
            resolved = resolve_batch_options(*design, batch);
        }

        std::vector<Solved_gene> solved;
        for (const Measurement_series& series : panel) {
            Deconvolution_options deconv = resolved.deconvolution;
            try {
                if (resolved.select_lambda) {
                    const Span span(recorder, "core.cv");
                    const auto previous = previous_lambda.find(series.label);
                    const Vector lambda_grid =
                        c > 0 && previous != previous_lambda.end()
                            ? default_lambda_grid(
                                  warm_grid_points,
                                  previous->second * std::pow(10.0, -warm_grid_decades),
                                  previous->second * std::pow(10.0, warm_grid_decades))
                            : resolved.lambda_grid;
                    const std::uint64_t solves_before = qp_solves.value();
                    const Lambda_selection selection = select_lambda_kfold(
                        *deconvolver, series, deconv, lambda_grid, resolved.cv_folds,
                        resolved.cv_seed);
                    deconv.lambda = selection.best_lambda;
                    if (recorder.enabled()) {
                        counts["cv_solves"] += static_cast<double>(qp_solves.value() - solves_before);
                        counts["cv_lambdas"] += static_cast<double>(selection.scores.size());
                        for (const double score : selection.scores) {
                            if (!std::isfinite(score)) counts["cv_lambdas_disqualified"] += 1.0;
                        }
                    }
                }
                const Span span(recorder, "core.estimate");
                Single_cell_estimate estimate = deconvolver->estimate(series, deconv);
                if (recorder.enabled()) {
                    counts["estimates"] += 1.0;
                    counts["estimate_qp_iterations"] += static_cast<double>(estimate.qp_iterations);
                }
                solved.push_back({series.label, std::move(estimate), deconv.lambda});
            } catch (const std::exception&) {
                // deconvolve_one's contract: a failed gene is left out of the output
            }
        }

        {
            const Span span(recorder, "population.synchrony");
            for (const Solved_gene& gene : solved) previous_lambda[gene.label] = gene.lambda;
            for (const Solved_gene& gene : solved) {
                const Vector values = gene.estimate.sample(score_phi);
                try {
                    counts["order_parameter_sum"] += profile_order_parameter(score_phi, values);
                    counts["entropy_sum"] += profile_entropy(values);
                } catch (const std::invalid_argument&) {
                    // no positive mass: the CLI skips the gene's scores too
                }
            }
        }
        {
            const Span span(recorder, "io.write");
            Series_writer writer("phi", grid);
            std::vector<std::pair<std::string, double>> lambdas;
            for (const Solved_gene& gene : solved) {
                writer.add(gene.label, gene.estimate.sample(grid));
                lambdas.emplace_back(gene.label, gene.lambda);
            }
            write_profiles_with_lambdas(stem + "." + condition.name + ".csv", writer.table(),
                                        lambdas);
        }
    }
    add_cache_counts(*cache, counts);
}

/// `stream --input records.csv --times ...` as cmd_stream computes it.
void stream_pass(const Args& args, const std::string& stem, Recorder& recorder,
                 Counts& counts) {
    const Span pass(recorder, "pass");
    const Vector times = parse_times(args.get("times"));
    std::optional<Kernel_cache> cache;
    {
        const Span span(recorder, "population.cache_open");
        cache.emplace(args.get("cache-dir"));
    }
    const Cell_cycle_config config;
    const Smooth_volume_model volume;
    const auto kernel = resolve_kernel(recorder, *cache, config, volume, times);
    std::shared_ptr<const Design_artifacts> design;
    {
        const Span span(recorder, "core.design");
        design = make_design_artifacts(std::make_shared<Natural_spline_basis>(basis_size),
                                       *kernel, config, Constraint_options{});
    }
    Stream_session_options options;
    options.basis_size = basis_size;
    options.threads = 1;
    options.stream.lambda = args.has("lambda") ? parse_strict_double(args.get("lambda"))
                                               : default_lambda;
    std::optional<Stream_session> session;
    {
        const Span span(recorder, "stream.session");
        session.emplace(design, options);
    }

    std::ifstream in;
    std::optional<Record_stream> records;
    {
        const Span span(recorder, "io.read");
        in.open(args.get("records"));
        if (!in) throw std::runtime_error("cannot open '" + args.get("records") + "'");
        records.emplace(in);
    }
    for (;;) {
        std::vector<Expression_record> batch;
        {
            const Span span(recorder, "io.read");
            batch = records->next_timepoint();
        }
        if (batch.empty()) break;
        const Span span(recorder, "stream.append");
        std::vector<Stream_record> updates_in;
        updates_in.reserve(batch.size());
        for (const Expression_record& record : batch) {
            updates_in.push_back({record.gene, record.value, record.sigma});
        }
        session->append_timepoint(batch.front().time, updates_in);
    }
    {
        const Span span(recorder, "stream.stats");
        const Stream_solve_stats stats = session->total_stats();
        counts["stream_updates"] = static_cast<double>(stats.updates);
        counts["stream_warm_accepts"] = static_cast<double>(stats.warm_accepts);
        counts["stream_cold_solves"] = static_cast<double>(stats.cold_solves);
    }
    {
        const Span span(recorder, "io.write");
        const Vector grid = linspace(0.0, 1.0, 201);
        Series_writer writer("phi", grid);
        std::vector<std::pair<std::string, double>> lambdas;
        for (const std::string& label : session->labels()) {
            const Streaming_deconvolver& stream = *session->find_stream(label);
            if (!stream.has_estimate()) continue;
            writer.add(label, stream.current().sample(grid));
            lambdas.emplace_back(label, stream.options().lambda);
        }
        if (!lambdas.empty()) write_profiles_with_lambdas(stem + ".csv", writer.table(), lambdas);
    }
    add_cache_counts(*cache, counts);
}

std::string pass_json(bool traced, std::int64_t wall_ns, const Recorder& recorder,
                      const Counts& counts) {
    std::ostringstream out;
    out << "{\"traced\": " << (traced ? "true" : "false") << ", \"wall_ns\": " << wall_ns
        << ", \"spans\": [";
    const std::vector<Span_record>& spans = recorder.spans();
    const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    for (std::size_t s = 0; s < spans.size(); ++s) {
        out << (s ? ", " : "") << "[\"" << spans[s].name << "\", "
            << spans[s].start_ns - origin << ", " << spans[s].end_ns - origin << ", "
            << spans[s].parent << "]";
    }
    out << "], \"counts\": {";
    out.precision(17);
    bool first = true;
    for (const auto& [name, value] : counts) {
        out << (first ? "" : ", ") << "\"" << name << "\": " << value;
        first = false;
    }
    out << "}}\n";
    return out.str();
}

int cmd_trace(const Args& args) {
    const std::string mode = args.get("mode");
    if (mode != "run" && mode != "stream") fail("--mode must be run or stream");
    std::vector<Condition_arg> conditions;
    for (const std::string& text : args.conditions) {
        conditions.push_back(parse_condition(text, true));
    }
    if (mode == "run" && conditions.empty()) fail("trace --mode run needs --condition");
    const double seconds = parse_strict_double(args.get("seconds"));
    const std::string cache_dir = args.get("cache-dir");
    std::ofstream spans_out(args.get("spans"));
    if (!spans_out) fail("cannot write '" + args.get("spans") + "'");

    const std::int64_t begin = Clock::now_ns();
    for (std::size_t pass = 0;; ++pass) {
        // Pass 0 is a traced warm-up; then untraced and traced alternate,
        // so both kinds see the same machine state on average.
        const bool traced = pass % 2 == 0;
        if (args.fresh_cache) std::filesystem::remove_all(cache_dir);
        Recorder recorder(traced);
        Counts counts;
        const std::string& stem = args.get(traced ? "out-traced" : "out-plain");
        const std::int64_t start = Clock::now_ns();
        if (mode == "run") run_pass(args, conditions, stem, recorder, counts);
        else stream_pass(args, stem, recorder, counts);
        const std::int64_t wall_ns = Clock::now_ns() - start;
        spans_out << pass_json(traced, wall_ns, recorder, counts);
        const double elapsed = static_cast<double>(Clock::now_ns() - begin) * 1e-9;
        if (pass >= 2 && traced && elapsed >= seconds) break;
    }
    spans_out.flush();
    if (!spans_out) fail("write failed for '" + args.get("spans") + "'");
    return 0;
}

/// R rounds per thread of a 48x48 matrix product plus a renormalisation:
/// compute-bound, cache-resident, and fixed by its arguments alone.
int cmd_calibrate(const Args& args) {
    const std::size_t threads = static_cast<std::size_t>(parse_strict_uint64(args.get("threads")));
    const std::size_t reps = static_cast<std::size_t>(parse_strict_uint64(args.get("reps")));
    constexpr std::size_t n = 48;
    std::vector<double> sinks(threads, 0.0);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&sinks, t, reps] {
            std::vector<double> a(n * n), b(n * n), c(n * n);
            for (std::size_t i = 0; i < n * n; ++i) {
                a[i] = 1.0 / static_cast<double>(1 + i % 17 + t);
                b[i] = 1.0 / static_cast<double>(1 + i % 13);
            }
            for (std::size_t r = 0; r < reps; ++r) {
                double norm = 0.0;
                for (std::size_t i = 0; i < n; ++i) {
                    for (std::size_t j = 0; j < n; ++j) {
                        double sum = 0.0;
                        for (std::size_t k = 0; k < n; ++k) sum += a[i * n + k] * b[k * n + j];
                        c[i * n + j] = sum;
                        norm += sum * sum;
                    }
                }
                for (std::size_t i = 0; i < n * n; ++i) a[i] = c[i] / (1.0 + norm);
                a[r % (n * n)] += 1.0;
            }
            sinks[t] = a[0];
        });
    }
    for (std::thread& thread : pool) thread.join();
    double total = 0.0;
    for (const double sink : sinks) total += sink;
    std::printf("%.17g\n", total);
    return 0;
}

int cmd_env() {
#if defined(__clang__)
    const char* compiler = "clang";
#elif defined(__GNUC__)
    const char* compiler = "gcc";
#else
    const char* compiler = "unknown";
#endif
    std::printf("{\"compiler\": \"%s %s\", \"build_type\": \"%s\"}\n", compiler, __VERSION__,
                DECONV_BENCH_BUILD_TYPE);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) fail("usage: deconv_bench_helper generate|trace|calibrate|env [options]");
    const std::string command = argv[1];
    try {
        if (command == "generate") return cmd_generate(parse_args(argc, argv));
        if (command == "trace") return cmd_trace(parse_args(argc, argv));
        if (command == "calibrate") return cmd_calibrate(parse_args(argc, argv));
        if (command == "env") return cmd_env();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "deconv_bench_helper: error: %s\n", e.what());
        return 1;
    }
    fail("unknown command '" + command + "'");
}
