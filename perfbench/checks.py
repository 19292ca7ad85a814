"""Output checks behind the benchmark's ``failed`` count.

Every check returns a list of problems; an empty list means the output is
correct. No check compares seeded noisy bytes against a stored reference:
each holds for any seed and any order in which the program draws its noise,
so a change to the noise draw order keeps them valid.
"""

from __future__ import annotations

import json
import math

import numpy as np

from contcount import counters, harness

_TOL = 1e-9

# summary fields that `game run --json` prints and `summarize` recomputes
RATIO_KEYS = ("trials", "mean_sw", "mean_ratio", "max_ratio", "min_ratio",
              "median_ratio", "q90_ratio", "envelope_pass_rate")


def check_tree_chain(true_sums, releases, envelope) -> list:
    """Releases of treesum -> clamp -> under -> mono against the true prefix sums.

    Row t of both arrays is the state after update t + 1. The releases must be
    integral, start at 0 and rise by 0 or 1 per step, never exceed the true
    count, and stay inside the declared zero-failure envelope.
    """
    x = np.asarray(true_sums, dtype=float)
    y = np.asarray(releases, dtype=float)
    problems = []
    if x.shape != y.shape:
        return [f"release shape {y.shape} != true-sum shape {x.shape}"]
    if envelope.gamma != 0.0:
        problems.append(f"declared envelope has gamma {envelope.gamma}, not 0")
    if not np.all(y == np.floor(y)):
        problems.append("a release is not integral")
    steps = np.diff(np.vstack([np.zeros((1, y.shape[1])), y]), axis=0)
    if not np.all((steps == 0.0) | (steps == 1.0)):
        problems.append("a release moved by something other than 0 or 1")
    if not np.all(y <= x):
        problems.append("a release exceeds the true count")
    lower = x / envelope.alpha - envelope.beta
    upper = envelope.alpha * x + envelope.beta
    if not (np.all(y >= lower - _TOL) and np.all(y <= upper + _TOL)):
        problems.append("a release lies outside the declared envelope")
    return problems


def check_identical(expected, got, what: str) -> list:
    """Bit-for-bit equality of two release arrays."""
    a = np.ascontiguousarray(expected, dtype=float)
    b = np.ascontiguousarray(got, dtype=float)
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        return [f"{what}: releases differ"]
    return []


def zero_noise_treesum(updates) -> np.ndarray:
    """A noiseless TreeSum releases the exact prefix sums."""
    return np.cumsum(np.asarray(updates, dtype=float), axis=0)


def zero_noise_ftsum(updates, horizon: int, spec) -> np.ndarray:
    """Releases of a noiseless FTSum, from the exact per-coordinate sums.

    A coordinate raises its flag when its sum first exceeds
    log2(n) * alpha^flag and releases log2(n) * alpha^(flag - 1) (0 before
    the first flag); once the flag passes k it releases the exact sum.
    """
    updates = np.asarray(updates, dtype=float)
    m = updates.shape[1]
    k = counters.ftsum_flag_count(horizon, m, spec.eps, spec.alpha, spec.gamma, spec.c_tree)
    log_n = math.log2(horizon) if horizon > 1 else 0.0
    exact = np.cumsum(updates, axis=0)
    flags = [0] * m
    acc = [0.0] * m
    taus = [log_n] * m
    out = np.empty_like(exact)
    for t, a in enumerate(updates):
        for r in range(m):
            if flags[r] <= k:
                acc[r] += float(a[r])
                if acc[r] > taus[r]:
                    flags[r] += 1
                    taus[r] = log_n * spec.alpha ** flags[r]
                out[t, r] = 0.0 if flags[r] == 0 else log_n * spec.alpha ** (flags[r] - 1)
            else:
                out[t, r] = exact[t, r]
    return out


def zero_noise_tree_chain(updates, horizon: int, spec) -> np.ndarray:
    """Releases of a noiseless treesum -> clamp -> under -> mono chain.

    The clamp keeps the exact sums x, the shift gives x - beta with beta the
    TreeSum's declared error bound, and the monotone wrapper steps up by one
    whenever that exceeds its report by more than 1/2.
    """
    exact = zero_noise_treesum(updates)
    beta = counters.treesum_error_bound(horizon, exact.shape[1], spec.eps, spec.gamma,
                                        spec.c_tree)
    shifted = exact - beta  # the TreeSum envelope has alpha = 1
    out = np.empty_like(exact)
    reported = np.zeros(exact.shape[1])
    for t in range(exact.shape[0]):
        reported = reported + (shifted[t] > reported + 0.5).astype(float)
        out[t] = reported
    return out


def _same(printed, recomputed) -> bool:
    """The CLI prints non-finite floats as null."""
    if printed is None:
        return isinstance(recomputed, float) and math.isnan(recomputed)
    return printed == recomputed


def check_game_run(rc: int, stdout: str, csv_path: str, trials: int,
                   ratio_bound: float) -> list:
    """One `game run --json --out <csv>` call at the greedy-private config."""
    if rc != 0:
        return [f"game run exited {rc}"]
    try:
        summary = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return ["game run printed no JSON summary"]
    problems = []
    if summary.get("trials") != trials:
        problems.append(f"summary has {summary.get('trials')} trials, {trials} requested")
    if summary.get("envelope_pass_rate") != 1.0:
        problems.append(f"envelope pass rate {summary.get('envelope_pass_rate')} != 1")
    max_ratio = summary.get("max_ratio")
    if max_ratio is None or max_ratio > ratio_bound + _TOL:
        problems.append(f"max ratio {max_ratio} above the bound {ratio_bound}")
    rows = harness.read_csv_results(csv_path)
    if len(rows) != trials:
        return problems + [f"CSV has {len(rows)} rows, {trials} trials requested"]
    recomputed = harness.summarize(rows)
    for key in RATIO_KEYS:
        if not _same(summary.get(key), recomputed[key]):
            problems.append(f"CSV summary {key}={recomputed[key]!r} != printed {summary.get(key)!r}")
    return problems


def check_scenario(rc: int, stdout: str, name: str) -> list:
    """One `reproduce <name> --json` call: exit 0 and a passing report."""
    if rc != 0:
        return [f"{name}: reproduce exited {rc}"]
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return [f"{name}: no JSON report"]
    if report.get("name") != name or report.get("passed") is not True:
        return [f"{name}: report {report.get('name')!r} passed={report.get('passed')!r}"]
    return []
