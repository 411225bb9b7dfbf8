#!/usr/bin/env python3
"""Deconvolution benchmark of the cellsync pipeline.

    python3 deconv_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 deconv_bench/run.py --self-test

Run from the repository root. Builds the library, the cellsync_deconvolve
CLI and deconv_bench_helper into .bench_build, generates the workload's
inputs from the seed (and pre-warms the kernel cache) in .bench_work, then:

  --trace 0  times the CLI binary, with tracing off, for S seconds after a
             discarded warm-up invocation, and checks every invocation's
             output: the end-to-end metrics. Times are scaled by the speed
             of the host measured in the same run (see CALIBRATION).
  --trace 1  runs the CLI once, then the helper's single-thread traced
             pass, which rebuilds the same pipeline from the layers' public
             functions, for S seconds; its profiles must match the CLI's
             bit for bit: the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The whole result, with the
environment it was measured in, is also written to
.bench_work/<workload>/result.json.

Workloads (every CLI invocation uses --threads 4):
  panel_cv          `run` over 3 conditions x 200 genes x 13 timepoints at
                    CLI defaults (5-fold CV per gene), kernels from the
                    pre-warmed cache: the production hot path, dominated by
                    cold QP solves inside CV.
  panel_cold_fixed  `run` over 6 conditions x 200 genes x 13 timepoints
                    with --lambda 1e-3 and an empty cache per invocation:
                    kernel simulation and its overlap with solves, CV
                    bypassed.
  stream_panel      `stream` over 1000 genes x 25 timepoints (25,000
                    records) at lambda 1e-3, kernel from the pre-warmed
                    cache: warm-started re-solves and record-log parsing.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # the benchmark writes only its own directories
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = ROOT / ".bench_work"
CLI = BUILD_DIR / "cellsync" / "tools" / "cellsync_deconvolve"
HELPER = BUILD_DIR / "deconv_bench_helper"

THREADS = 4
SETUP_REPEATS = 5
# The host this runs on shares its cores with other tenants, and how fast
# it runs drifts by tens of percent over minutes. Each timed invocation is
# followed by this fixed load, which no repository code takes part in, and
# every end-to-end time is divided by the run's speed factor: the median
# calibration wall time over CALIBRATION_REFERENCE_S. Raw times are printed
# and stored beside the scaled ones.
CALIBRATION = ["calibrate", "--threads", str(THREADS), "--reps", "1000"]
CALIBRATION_REFERENCE_S = 0.1
INVOCATION_TIMEOUT_S = 60
PHI_POINTS = 201
# A correct deconvolution of these inputs recovers most genes closely; a
# median correlation below this means the estimator itself is broken.
RECOVERY_CORR_FLOOR = 0.8

# name, mu_sst, cycle_minutes: strains that differ in cycle speed and
# transition phase, so each condition has its own kernel.
CONDITIONS = [("c0", "0.15", "150"), ("c1", "0.13", "130"), ("c2", "0.17", "170"),
              ("c3", "0.14", "140"), ("c4", "0.16", "160"), ("c5", "0.12", "145")]

WORKLOADS = {
    "panel_cv": {"mode": "run", "genes": 200, "times": "0:180:13",
                 "conditions": CONDITIONS[:3], "cli_args": [], "fresh_cache": False},
    "panel_cold_fixed": {"mode": "run", "genes": 200, "times": "0:180:13",
                         "conditions": CONDITIONS, "cli_args": ["--lambda", "1e-3"],
                         "fresh_cache": True},
    "stream_panel": {"mode": "stream", "genes": 1000, "times": "0:180:25",
                     "conditions": [("s0", "0.15", "150")], "cli_args": [],
                     "fresh_cache": False},
}


class Bench_error(Exception):
    """The benchmark itself could not run (build, setup or helper failure)."""


def spawn_wait(cmd, cwd, out, timeout):
    """Run `cmd` with output to the open file `out`, waiting in one blocking
    wait4 (no polling, which would quantise the timings); returns (exit
    code, wall s, resource usage). A watchdog kills it after `timeout` s."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def run_checked(cmd, cwd, log, timeout):
    with open(log, "ab") as out:
        code, _, _ = spawn_wait(cmd, cwd, out, timeout)
    if code != 0:
        tail_text = Path(log).read_text(errors="replace")[-3000:]
        raise Bench_error(f"{' '.join(map(str, cmd))} exited {code}\n{tail_text}")


def build():
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in cache.read_text():
        shutil.rmtree(BUILD_DIR)  # configured for another source tree
    BUILD_DIR.mkdir(exist_ok=True)
    log = BUILD_DIR / "bench_build.log"
    log.write_text("")
    if not cache.exists():
        run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                    ROOT, log, 300)
    run_checked(["cmake", "--build", BUILD_DIR, "-j", str(THREADS), "--target",
                 "cellsync_deconvolve", "deconv_bench_helper"], ROOT, log, 840)


# ---------------------------------------------------------------------------
# setup: inputs and kernel cache
# ---------------------------------------------------------------------------

def setup(spec, seed, directory):
    """Generate the inputs into directory/in and, unless every invocation
    starts from an empty cache, pre-warm directory/cache. Returns seconds."""
    start = time.perf_counter()
    log = directory / "setup.log"
    directory.mkdir(parents=True)
    cmd = [HELPER, "generate", "--out", "in", "--seed", str(seed), "--genes",
           str(spec["genes"]), "--times", spec["times"],
           "--format", "records" if spec["mode"] == "stream" else "panel"]
    for name, mu, cycle in spec["conditions"]:
        cmd += ["--condition", f"{name},{mu},{cycle}"]
    run_checked(cmd, directory, log, 120)
    if not spec["fresh_cache"]:
        for name, mu, cycle in spec["conditions"]:
            times = (["--times", spec["times"]] if spec["mode"] == "stream"
                     else ["--times-from", f"in/{name}.csv"])
            run_checked([CLI, "kernel", "cache", "--cache-dir", "cache", *times,
                         "--mu-sst", mu, "--cycle-minutes", cycle], directory, log, 120)
    return time.perf_counter() - start


def input_digest(directory):
    digest = hashlib.sha256()
    for path in sorted((directory / "in").iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def input_paths(spec, directory):
    if spec["mode"] == "stream":
        return [directory / "in" / "records.csv"]
    return [directory / "in" / f"{name}.csv" for name, _, _ in spec["conditions"]]


# ---------------------------------------------------------------------------
# CLI invocations and their output checks
# ---------------------------------------------------------------------------

def cli_command(spec, cache):
    if spec["mode"] == "stream":
        return [CLI, "stream", "--threads", str(THREADS), "--input", "in/records.csv",
                "--times", spec["times"], "--cache-dir", cache, "--output", "out/cli.csv",
                *spec["cli_args"]]
    cmd = [CLI, "run", "--threads", str(THREADS), "--cache-dir", cache,
           "--output", "out/cli.csv", *spec["cli_args"]]
    for name, mu, cycle in spec["conditions"]:
        cmd += ["--condition", f"{name}=in/{name}.csv,mu_sst={mu},cycle_minutes={cycle}"]
    return cmd


def output_files(spec, directory, stem):
    """(condition, path) of every profile CSV an invocation writes."""
    if spec["mode"] == "stream":
        return [(spec["conditions"][0][0], directory / "out" / f"{stem}.csv")]
    return [(name, directory / "out" / f"{stem}.{name}.csv")
            for name, _, _ in spec["conditions"]]


def invoke(cmd, cwd, stdout_path):
    """Run one CLI invocation; returns (exit code, wall s, cpu s, peak RSS MB)."""
    with open(stdout_path, "wb") as out:
        code, wall, usage = spawn_wait(cmd, cwd, out, INVOCATION_TIMEOUT_S)
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def parse_profiles(path):
    """{gene: (lambda text or None, [values])} of a profile CSV, or None
    when the file is missing or has no phi column."""
    if not path.exists():
        return None
    lambdas = {}
    rows = []
    for line in path.read_text(errors="replace").splitlines():
        if line.startswith("# lambda:"):
            gene, _, value = line[len("# lambda:"):].partition("=")
            lambdas[gene] = value
        elif line and not line.startswith("#"):
            rows.append(line.split(","))
    if not rows or rows[0][0] != "phi":
        return None
    columns = {}
    for c, gene in enumerate(rows[0][1:], start=1):
        values = []
        for row in rows[1:]:
            try:
                values.append(float(row[c]))
            except (IndexError, ValueError):
                values.append(float("nan"))
        columns[gene] = (lambdas.get(gene), values)
    return columns


def reported_failures(spec, stdout_text):
    """(condition, gene) pairs the CLI reported as failed on stdout."""
    failed = set()
    if spec["mode"] == "stream":
        condition = spec["conditions"][0][0]
        for match in re.finditer(r"gene '([^']*)' \[", stdout_text):
            failed.add((condition, match.group(1)))
        return failed
    condition = None
    for line in stdout_text.splitlines():
        header = re.match(r"condition (\S+)\s*: mean order parameter", line)
        if header:
            condition = header.group(1)
        failed_gene = re.match(r"\s+(\S+)\s+FAILED:", line)
        if failed_gene:
            failed.add((condition, failed_gene.group(1)))
    return failed


def full_check(spec, files, exit_code, stdout_text, genes):
    """Every (condition, gene) item of one invocation that failed, and the
    parsed profiles. An item fails when the CLI reported it FAILED, when
    it is missing from the output or has no `# lambda:` comment, or when
    any of its values is not finite."""
    failed = reported_failures(spec, stdout_text)
    profiles = {}
    for condition, path in files:
        parsed = parse_profiles(path) or {}
        profiles[condition] = parsed
        for gene in genes:
            entry = parsed.get(gene)
            if (entry is None or entry[0] is None or len(entry[1]) != PHI_POINTS
                    or not all(map(_finite, entry[1]))):
                failed.add((condition, gene))
    if exit_code != 0 and not failed:
        failed = {(condition, gene) for condition, _ in files for gene in genes}
    return failed, profiles


def _finite(value):
    return value == value and abs(value) != float("inf")


def files_digest(files):
    digest = hashlib.sha256()
    for _, path in files:
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
    return digest.hexdigest()


def recovery(profiles, truth_path, genes):
    """Per-item correlation and range-normalised RMSE against the truth; an
    item without a finite profile counts as unrecovered (correlation 0,
    error 1)."""
    truth = parse_profiles(truth_path)
    correlations, errors = [], []
    for condition_profiles in profiles.values():
        for gene in genes:
            values = condition_profiles.get(gene, (None, []))[1]
            if len(values) == PHI_POINTS and all(map(_finite, values)):
                correlations.append(stats.pearson(values, truth[gene][1]))
                errors.append(stats.nrmse(values, truth[gene][1]))
            else:
                correlations.append(0.0)
                errors.append(1.0)
    return correlations, errors


# ---------------------------------------------------------------------------
# --trace 0: the timed CLI
# ---------------------------------------------------------------------------

def fresh_cache_dir(spec, directory):
    if spec["fresh_cache"]:
        shutil.rmtree(directory / "fresh_cache", ignore_errors=True)
        return "fresh_cache"
    return "cache"


def timed_run(spec, directory, seconds, genes, setup_times, notes):
    files = output_files(spec, directory, "cli")
    items = len(files) * len(genes)
    stdout_path = directory / "cli.out"

    # The warm-up: discarded from the timings, fully checked, and the
    # reference every timed invocation's output must reproduce byte for
    # byte (a clean warm-up output only; otherwise each one is re-checked).
    cmd = cli_command(spec, fresh_cache_dir(spec, directory))
    exit_code, _, _, _ = invoke(cmd, directory, stdout_path)
    failed, profiles = full_check(spec, files, exit_code,
                                  stdout_path.read_text(errors="replace"), genes)
    reference = None if failed else files_digest(files)
    correlations, errors = recovery(profiles, directory / "in" / "truth.csv", genes)

    walls, cpus, rss, calibration = [], [], [], []
    attempted = failed_items = 0
    deterministic = True
    begin = time.perf_counter()
    while True:
        cmd = cli_command(spec, fresh_cache_dir(spec, directory))
        exit_code, wall, cpu, peak = invoke(cmd, directory, stdout_path)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        attempted += items
        # The CLI exits non-zero whenever it reports a failed gene.
        if exit_code != 0 or files_digest(files) != reference:
            failed, _ = full_check(spec, files, exit_code,
                                   stdout_path.read_text(errors="replace"), genes)
            failed_items += len(failed)
            if not failed and reference is not None:
                deterministic = False
        with open(directory / "calibration.out", "wb") as out:
            code, cal_wall, _ = spawn_wait([HELPER, *CALIBRATION], directory, out, 60)
        if code != 0:
            raise Bench_error(f"calibration load exited {code}")
        calibration.append(cal_wall)
        if time.perf_counter() - begin >= seconds:
            break

    speed = stats.median(calibration) / CALIBRATION_REFERENCE_S
    tail_value, tail_pct, tail_beyond = stats.tail(walls)
    timepoints = int(spec["times"].split(":")[2])
    throughput_items = spec["genes"] * timepoints if spec["mode"] == "stream" else items
    corr_median = stats.median(correlations)
    raw = {"wall_s": stats.median(walls), "wall_s_tail": tail_value,
           "cpu_s": stats.median(cpus), "setup_s": stats.median(setup_times)}
    metrics = {name: value / speed for name, value in raw.items()}
    metrics.update({
        "items_per_s": throughput_items / metrics["wall_s"],
        "peak_rss_mb": stats.median(rss),
        "recovery_corr_median": corr_median,
        "recovery_nrmse_p90": stats.percentile(errors, 90),
        "success_frac": 1.0 - failed_items / attempted,
    })
    notes.update({
        "invocations": len(walls),
        "speed_factor": speed,
        "raw": raw,
        "walls_s": [round(w, 5) for w in walls],
        "calibration_s": [round(w, 5) for w in calibration],
        "wall_s_tail_percentile": tail_pct,
        "wall_s_tail_samples_beyond": tail_beyond,
        "items_per_invocation": throughput_items,
        "item_unit": "record updates" if spec["mode"] == "stream" else "gene-conditions",
        "failed_frac": failed_items / attempted,
        "outputs_deterministic": deterministic,
        "recovery_items": len(correlations),
    })
    correct = (failed_items == 0 and deterministic
               and corr_median >= RECOVERY_CORR_FLOOR)
    return metrics, attempted, failed_items, correct


# ---------------------------------------------------------------------------
# --trace 1: the traced pass
# ---------------------------------------------------------------------------

def compare_outputs(spec, directory, stem, genes):
    """Items whose lambda comment or profile values differ between the
    CLI's output and the traced pass's output `stem`."""
    mismatched = set()
    for (condition, cli_path), (_, pass_path) in zip(output_files(spec, directory, "cli"),
                                                     output_files(spec, directory, stem)):
        if cli_path.exists() and pass_path.exists() and \
                cli_path.read_bytes() == pass_path.read_bytes():
            continue
        cli = parse_profiles(cli_path) or {}
        traced = parse_profiles(pass_path) or {}
        differing = {(condition, gene) for gene in genes
                     if gene not in cli or cli.get(gene) != traced.get(gene)}
        mismatched |= differing or {(condition, "<file bytes>")}
    return mismatched


def layer_metrics(passes, input_bytes):
    traced = [p for p in passes[1:] if p["traced"]]
    plain = [p for p in passes[1:] if not p["traced"]]
    per_pass = []
    append_ms = []
    for p in traced:
        spans = p["spans"]
        self_times = stats.fold_self_times(spans)
        by_name = {}
        for (name, _, _, _), self_ns in zip(spans, self_times):
            by_name[name] = by_name.get(name, 0.0) + self_ns * 1e-9
            if name == "stream.append":
                append_ms.append(self_ns * 1e-6)
        root = spans[0]
        root_s = (root[2] - root[1]) * 1e-9
        counts = p["counts"]
        layer = {
            "io.read_s": by_name.get("io.read", 0.0),
            "io.write_s": by_name.get("io.write", 0.0),
            "population.kernel_build_s": by_name.get("population.kernel_build", 0.0),
            "population.kernel_builds": counts.get("kernel_builds", 0.0),
            "population.kernel_load_s": by_name.get("population.kernel_load", 0.0),
            "population.kernel_disk_hits": counts.get("kernel_disk_hits", 0.0),
            "population.synchrony_s": by_name.get("population.synchrony", 0.0),
            "core.design_s": by_name.get("core.design", 0.0),
            "core.cv_s": by_name.get("core.cv", 0.0),
            "core.cv_solves": counts.get("cv_solves", 0.0),
            "core.estimate_s": by_name.get("core.estimate", 0.0),
            "core.estimate_qp_iterations": counts.get("estimate_qp_iterations", 0.0),
            "stream.session_s": by_name.get("stream.session", 0.0),
            "stream.append_s": by_name.get("stream.append", 0.0),
            "stream.cold_solves": counts.get("stream_cold_solves", 0.0),
            "trace.wall_s": p["wall_ns"] * 1e-9,
            "trace.coverage": 1.0 - self_times[0] * 1e-9 / root_s,
        }
        layer["io.read_mb_per_s"] = (input_bytes / 1e6 / layer["io.read_s"]
                                     if layer["io.read_s"] > 0 else 0.0)
        solves = counts.get("cv_solves", 0.0)
        layer["core.cv_us_per_solve"] = layer["core.cv_s"] * 1e6 / solves if solves else 0.0
        lambdas = counts.get("cv_lambdas", 0.0)
        layer["core.cv_lambda_disqualified_frac"] = (
            counts.get("cv_lambdas_disqualified", 0.0) / lambdas if lambdas else 0.0)
        estimates = counts.get("estimates", 0.0)
        layer["core.estimate_us_per_solve"] = (layer["core.estimate_s"] * 1e6 / estimates
                                               if estimates else 0.0)
        updates = counts.get("stream_updates", 0.0)
        layer["stream.warm_accept_ratio"] = (counts.get("stream_warm_accepts", 0.0) / updates
                                             if updates else 0.0)
        per_pass.append(layer)

    metrics = {name: stats.median([layer[name] for layer in per_pass])
               for name in per_pass[0]}
    metrics["stream.append_ms_median"] = stats.median(append_ms) if append_ms else 0.0
    metrics["stream.append_ms_tail"] = stats.tail(append_ms)[0] if append_ms else 0.0
    metrics["trace.overhead_frac"] = (
        metrics["trace.wall_s"] / stats.median([p["wall_ns"] * 1e-9 for p in plain]) - 1.0)
    notes = {"traced_passes": len(traced), "plain_passes": len(plain),
             "stream_append_tail": stats.tail(append_ms)[1:] if append_ms else None}
    return metrics, notes


def traced_run(spec, directory, seconds, genes, notes):
    files = output_files(spec, directory, "cli")
    stdout_path = directory / "cli.out"
    exit_code, _, _, _ = invoke(cli_command(spec, fresh_cache_dir(spec, directory)),
                                directory, stdout_path)
    failed, _ = full_check(spec, files, exit_code, stdout_path.read_text(errors="replace"),
                           genes)

    cmd = [HELPER, "trace", "--mode", spec["mode"], "--seconds", str(seconds),
           "--spans", "spans.jsonl", "--out-traced", "out/traced", "--out-plain",
           "out/plain", "--cache-dir",
           "trace_cache" if spec["fresh_cache"] else "cache"]
    if spec["fresh_cache"]:
        cmd.append("--fresh-cache")
    cmd += spec["cli_args"]
    if spec["mode"] == "stream":
        cmd += ["--records", "in/records.csv", "--times", spec["times"]]
    else:
        for name, mu, cycle in spec["conditions"]:
            cmd += ["--condition", f"{name},in/{name}.csv,{mu},{cycle}"]
    run_checked(cmd, directory, directory / "trace.log", 170)

    mismatched = (compare_outputs(spec, directory, "traced", genes)
                  | compare_outputs(spec, directory, "plain", genes))
    if mismatched:
        print(f"traced pass differs from the CLI on {len(mismatched)} items, e.g. "
              f"{sorted(mismatched)[:5]}")
    passes = [json.loads(line) for line in
              (directory / "spans.jsonl").read_text().splitlines() if line]
    input_bytes = sum(path.stat().st_size for path in input_paths(spec, directory))
    metrics, pass_notes = layer_metrics(passes, input_bytes)
    notes.update(pass_notes)
    notes["traced_pass_matches_cli"] = not mismatched
    attempted = len(files) * len(genes)
    failed_items = len(failed | mismatched)
    return metrics, attempted, failed_items, failed_items == 0


# ---------------------------------------------------------------------------

def environment(directory):
    """nproc, --threads, the SIMD dispatch tier `run --verbose` reports, and
    the build type and compiler, recorded with every result."""
    log = directory / "probe.out"
    run_checked([CLI, "run", "--input", "in/probe.csv", "--lambda", "1e-3", "--verbose",
                 "--threads", str(THREADS), "--cache-dir", "probe_cache",
                 "--output", "out/probe.csv"], directory, log, 120)
    match = re.search(r"numerics: simd dispatch (\S+) \((\w+)\)", log.read_text())
    run_checked([HELPER, "env"], directory, directory / "env.json", 60)
    build_info = json.loads((directory / "env.json").read_text())
    return {"nproc": os.cpu_count(), "threads": THREADS,
            "simd_tier": f"{match.group(1)} ({match.group(2)})" if match else "unknown",
            **build_info}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    failures = stats.self_check()
    if args.self_test or failures:
        for failure in failures:
            print(f"self-check FAILED: {failure}")
        print(f"statistics self-checks: {'FAIL' if failures else 'ok'}")
        return 1 if failures else 0
    if args.workload is None:
        parser.error("--workload is required")
    if not ((ROOT / "CMakeLists.txt").exists() and (ROOT / "src" / "layers.manifest").exists()
            and (ROOT / "tools" / "cellsync_deconvolve.cpp").exists()):
        print(f"deconv_bench: no cellsync sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    try:
        build()
        directory = WORK_DIR / args.workload
        shutil.rmtree(directory, ignore_errors=True)
        setup_times, digests = [], set()
        for repeat in range(SETUP_REPEATS):
            setup_dir = directory / f"setup{repeat}"
            setup_times.append(setup(spec, args.seed, setup_dir))
            digests.add(input_digest(setup_dir))
        if len(digests) != 1:
            raise Bench_error("the same seed generated different inputs")
        for repeat in range(1, SETUP_REPEATS):
            shutil.rmtree(directory / f"setup{repeat}")
        run_dir = directory / "setup0"
        (run_dir / "out").mkdir()
        genes = [f"g{g:04d}" for g in range(spec["genes"])]
        env = environment(run_dir)
        notes = {}
        if args.trace:
            metrics, attempted, failed, correct = traced_run(spec, run_dir, args.seconds,
                                                             genes, notes)
            kind = "per_layer"
        else:
            metrics, attempted, failed, correct = timed_run(spec, run_dir, args.seconds,
                                                            genes, setup_times, notes)
            kind = "end_to_end"
    except (Bench_error, OSError) as error:
        print(f"deconv_bench: {error}", file=sys.stderr)
        return 1

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {metric["name"]: metric["unit"] for metric in declared}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    (directory / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "env": env, "notes": notes, **result}, indent=2) + "\n")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"env {json.dumps(env)}")
    print(f"notes {json.dumps(notes)}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"  times above are divided by the speed factor {notes['speed_factor']:.4f}; raw: "
              + ", ".join(f"{name} {value:.6g} s" for name, value in notes["raw"].items()))
        print(f"  wall_s_tail is p{notes['wall_s_tail_percentile']} of {notes['invocations']} "
              f"invocations, {notes['wall_s_tail_samples_beyond']} samples beyond it")
        print(f"  {'failed_frac':36s} {notes['failed_frac']:.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
