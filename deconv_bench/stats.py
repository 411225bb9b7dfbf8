"""Statistics of the deconvolution benchmark, with their self-checks.

Pure functions over plain lists, so the checks in `self_check()` pin each
rule down on a hand-computed fixture.
"""

import math

# Tail percentiles tried from the highest down; the tail is the highest one
# that still has at least TAIL_MIN_BEYOND samples ranked beyond it.
TAIL_LADDER = (99, 95, 90, 80, 75, 50)
TAIL_MIN_BEYOND = 10


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def _rank(p, n):
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(p * n / 100.0))


def percentile(values, p):
    """Nearest-rank percentile: the value at rank ceil(p/100 * n)."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail(values):
    """(value, percentile, samples beyond) of the highest ladder percentile
    with at least TAIL_MIN_BEYOND samples ranked beyond it; the maximum
    (percentile 100, none beyond) when no ladder percentile has enough."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = _rank(p, n)
        if n - rank >= TAIL_MIN_BEYOND:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100, 0


def pearson(x, y):
    """Pearson correlation; 0 when either side is constant."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    return sxy / math.sqrt(sxx * syy)


def nrmse(output, truth):
    """Root-mean-square error normalised by the truth's range."""
    rmse = math.sqrt(sum((a - b) ** 2 for a, b in zip(output, truth)) / len(truth))
    spread = max(truth) - min(truth)
    return rmse / spread if spread > 0.0 else math.inf


def fold_self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover. `spans` holds (name, start, end, parent)
    with parent the index of the enclosing span (-1 for a root). Returns
    the per-span self times, in input order."""
    children = [[] for _ in spans]
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    self_times = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        self_times.append((end - start) - covered)
    return self_times


def self_check():
    """Check every rule above on fixtures computed by hand; returns the
    list of failures (empty when all hold)."""
    failures = []

    def expect(name, got, want, tol=1e-12):
        if isinstance(want, tuple):
            ok = len(got) == len(want) and all(
                abs(g - w) <= tol for g, w in zip(got, want))
        else:
            ok = abs(got - want) <= tol
        if not ok:
            failures.append(f"{name}: got {got!r}, want {want!r}")

    # Self-time folding. root [0,100] holds A [10,40] (which holds B
    # [20,30]) and C [50,70] (entirely covered by its child D); E [90,110]
    # overruns the root and counts only inside it. Self times:
    # root 100-30-20-10 = 40, A 30-10 = 20, B 10, C 0, D 20, E 20.
    spans = [("root", 0, 100, -1), ("A", 10, 40, 0), ("B", 20, 30, 1),
             ("C", 50, 70, 0), ("D", 50, 70, 3), ("E", 90, 110, 0)]
    expect("fold nested", tuple(fold_self_times(spans)), (40, 20, 10, 0, 20, 20))
    # Overlapping siblings are covered once: [10,40] and [30,60] cover 50.
    overlap = [("root", 0, 100, -1), ("x", 10, 40, 0), ("y", 30, 60, 0)]
    expect("fold overlap", fold_self_times(overlap)[0], 50)

    # Tail rule, nearest rank. 1..50: p90 leaves 5 beyond, p80 (rank 40)
    # leaves 10. 1..100: p90 (rank 90) leaves 10. 1..9: no percentile
    # qualifies, so the maximum with none beyond.
    expect("tail 50", tail(list(range(50, 0, -1))), (40, 80, 10))
    expect("tail 100", tail(list(range(1, 101))), (90, 90, 10))
    expect("tail 20", tail(list(range(1, 21))), (10, 50, 10))
    expect("tail 9", tail(list(range(1, 10))), (9, 100, 0))
    # Fractional ranks round up: 1..57 at p80 is rank ceil(45.6) = 46,
    # leaving 11 beyond; 1..7 at p50 is rank ceil(3.5) = 4.
    expect("tail 57", tail(list(range(1, 58))), (46, 80, 11))
    expect("percentile", percentile([3, 1, 2, 4], 75), 3)
    expect("percentile odd", percentile(list(range(1, 8)), 50), 4)
    expect("median even", median([4, 1, 3, 2]), 2.5)

    # Correlation and NRMSE. out = [1,2,3,5] against truth = [1,2,3,4]:
    # deviations (-1.75,-0.75,0.25,2.25) and (-1.5,-0.5,0.5,1.5) give
    # sxy = 6.5, sxx = 8.75, syy = 5, so r = 6.5 / sqrt(43.75); the only
    # error is 1, so RMSE = sqrt(1/4) = 0.5 over a range of 3.
    expect("pearson", pearson([1, 2, 3, 5], [1, 2, 3, 4]), 6.5 / math.sqrt(43.75))
    expect("pearson anti", pearson([1, 2, 3, 4], [8, 6, 4, 2]), -1.0)
    expect("pearson flat", pearson([1, 1, 1], [1, 2, 3]), 0.0)
    expect("nrmse", nrmse([1, 2, 3, 5], [1, 2, 3, 4]), 0.5 / 3.0)
    return failures
