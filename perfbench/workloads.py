"""The benchmark's three workloads.

Each workload runs closed loop, in one process, on one thread, with one
caller: in the games every update depends on the previous release, so no
request can be sent before the last one returns. A workload only calls the
package's public entry points, ``MechanismSpec.build`` / ``update`` and
``cli.main``, and makes its inputs from the seed it is given.

``timed(deadline_ns)`` repeats the workload's operation until the deadline
and returns the end-to-end numbers, scaled to reference machine speed (see
``speed.py``). ``unit()`` runs one fixed unit of work, the same at every
call, for the traced run and its untraced twins; its times are raw.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import random
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from contcount import cli, harness
from contcount.noise import RandomSource

import checks
from speed import Speedometer, clock


@dataclass
class Outcome:
    """What one timed run or one unit of work measured."""

    ops_per_s: float = 0.0
    op_ns: list = field(default_factory=list)   # one latency per distinct operation
    raw_ops_per_s: float = 0.0                  # the same two before speed scaling
    raw_op_ns: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    properties: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)   # per-layer numbers measured without shims
    digest: str = ""                            # hash of every output, traced vs untraced

    def record(self, problems: list, what: str) -> None:
        """Count one checked operation; report its problems on stderr."""
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"perfbench: {what} failed: {'; '.join(problems)}", file=sys.stderr)


def _failure(exc: BaseException) -> list:
    return ["".join(traceback.format_exception_only(type(exc), exc)).strip()]


def _call_cli(argv) -> tuple:
    """Run ``cli.main(argv)`` capturing stdout; returns (rc, stdout, start, end)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = clock()
        rc = cli.main(argv)
        t1 = clock()
    return rc, buf.getvalue(), t0, t1


# ---------------------------------------------------------------------------
# counter-stream


class CounterStream:
    """One Zipf-skewed stream of one-hot updates through three counter chains.

    The long horizon makes the step cost dominate construction; the skew
    gives coordinates of very different rates, which decides how long each
    stays in FTSum's flag phase. An operation is one stream step: one
    ``update`` on each chain.
    """

    name = "counter-stream"
    CHAINS = {
        "treesum": harness.MechanismSpec(mech="treesum", eps=1.0),
        "ftsum": harness.MechanismSpec(mech="ftsum", eps=1.0),
        "tree_chain": harness.MechanismSpec(mech="treesum", eps=1.0,
                                            wraps=("clamp", "under", "mono")),
    }

    DIM = 32
    ZIPF_S = 1.1

    def __init__(self, seed: int, steps: int = 1 << 15, check_prefix: int = 1024):
        self.seed = seed
        self.steps = steps
        self.check_prefix = min(check_prefix, steps)
        rng = np.random.default_rng(seed)
        weights = 1.0 / np.arange(1, self.DIM + 1) ** self.ZIPF_S
        coords = rng.choice(self.DIM, size=steps, p=weights / weights.sum())
        self.updates = np.zeros((steps, self.DIM))
        self.updates[np.arange(steps), coords] = 1.0
        self.true_sums = np.cumsum(self.updates, axis=0)

    def _build(self, spec, steps=None):
        return spec.build(steps or self.steps, self.DIM, RandomSource(self.seed, 1))

    def warm_up(self) -> None:
        for spec in self.CHAINS.values():
            mech = self._build(spec, 64)
            for a in self.updates[:64]:
                mech.update(a)

    def _stream(self, deadline_ns=None):
        """Build the chains and stream until the end or the deadline."""
        names = list(self.CHAINS)
        t0 = clock()
        m0, m1, m2 = (self._build(self.CHAINS[c]) for c in names)
        build = (t0, clock())
        releases = [np.empty((self.steps, self.DIM)) for _ in names]
        r0, r1, r2 = releases
        starts, lat0, lat1, lat2 = [], [], [], []
        phase_one = 0
        done = 0
        for i, a in enumerate(self.updates):
            t0 = clock()
            y0 = m0.update(a)
            t1 = clock()
            y1 = m1.update(a)
            t2 = clock()
            y2 = m2.update(a)
            t3 = clock()
            starts.append(t0)
            lat0.append(t1 - t0)
            lat1.append(t2 - t1)
            lat2.append(t3 - t2)
            r0[i] = y0
            r1[i] = y1
            r2[i] = y2
            phase_one += int(m1.in_phase_one().sum())
            done = i + 1
            if deadline_ns is not None and t3 >= deadline_ns:
                break
        lats = dict(zip(names, (np.array(lat0), np.array(lat1), np.array(lat2))))
        return {
            "done": done,
            "build": build,
            "starts": np.array(starts, dtype=np.int64),
            "lat": lats,
            "releases": {c: r[:done] for c, r in zip(names, releases)},
            "envelope": m2.envelope,
            "phase_one_pairs": phase_one,
        }

    def _check_builds(self, run: dict) -> dict:
        """Per chain: a second build with the seed repeats the first releases
        of ``run`` bit for bit, and a noiseless build gives the releases of
        exact arithmetic."""
        prefix = self.updates[:min(self.check_prefix, run["done"])]
        models = {
            "treesum": lambda spec: checks.zero_noise_treesum(prefix),
            "ftsum": lambda spec: checks.zero_noise_ftsum(prefix, self.steps, spec),
            "tree_chain": lambda spec: checks.zero_noise_tree_chain(prefix, self.steps, spec),
        }
        problems = {}
        for chain, spec in self.CHAINS.items():
            again, noiseless = (self._build(s) for s in (spec, dataclasses.replace(
                spec, zero_noise=True)))
            problems[chain] = (
                checks.check_identical(run["releases"][chain][:len(prefix)],
                                       [again.update(a) for a in prefix],
                                       f"{chain} rebuilt with the seed")
                + checks.check_identical(models[chain](spec),
                                         [noiseless.update(a) for a in prefix],
                                         f"{chain} without noise"))
        return problems

    def _account(self, out: Outcome, run: dict | None, error=None,
                 build_problems: dict | None = None) -> None:
        for chain in self.CHAINS:
            if error is not None:
                problems = _failure(error)
            else:
                problems = list((build_problems or {}).get(chain, []))
                if chain == "tree_chain":
                    problems += checks.check_tree_chain(
                        self.true_sums[:run["done"]], run["releases"][chain], run["envelope"])
            out.record(problems, f"{self.name} {chain} stream")

    def timed(self, deadline_ns: int) -> Outcome:
        out = Outcome()
        starts, ends, builds = [], [], []
        phase_one = 0
        first = True
        with Speedometer() as speed:
            while clock() < deadline_ns:
                try:
                    run = self._stream(deadline_ns)
                    build_problems = self._check_builds(run) if first else {}
                except Exception as exc:  # a failed stream is a failed operation, not a crash
                    self._account(out, None, exc)
                    continue
                first = False
                self._account(out, run, build_problems=build_problems)
                lat = run["lat"]
                starts.append(run["starts"])
                ends.append(run["starts"] + lat["treesum"] + lat["ftsum"] + lat["tree_chain"])
                builds.append(run["build"])
                phase_one += run["phase_one_pairs"]
                del run  # free this pass's releases before the next pass allocates its own
        if not starts:
            return out
        out.raw_op_ns, out.op_ns = speed.scale(np.concatenate(starts), np.concatenate(ends))
        raw_build, build = speed.scale(*zip(*builds))
        steps = len(out.op_ns)
        out.raw_ops_per_s = steps / ((out.raw_op_ns.sum() + raw_build.sum()) / 1e9)
        out.ops_per_s = steps / ((out.op_ns.sum() + build.sum()) / 1e9)
        out.properties = {"steps": steps, "ftsum_phase_one_frac": phase_one / (steps * self.DIM)}
        return out

    def unit(self) -> Outcome:
        out = Outcome()
        run = self._stream()
        self._account(out, run)
        digest = hashlib.sha256()
        for chain in self.CHAINS:
            digest.update(np.ascontiguousarray(run["releases"][chain]).tobytes())
            lat = run["lat"][chain] / 1e3
            out.layer[f"counters.step.{chain}.p50_us"] = float(np.percentile(lat, 50))
            out.layer[f"counters.step.{chain}.p99_us"] = float(np.percentile(lat, 99))
        out.digest = digest.hexdigest()
        out.properties = {"ftsum_phase_one_frac":
                          run["phase_one_pairs"] / (run["done"] * self.DIM)}
        return out


# ---------------------------------------------------------------------------
# resource-trials


class ResourceTrials:
    """`game run` at the thm:greedy-private configuration, one trial per call.

    The paper's headline experiment: random resource-sharing instances of up
    to 200 players, a TreeSum behind clamp -> under -> mono, and the exact
    matching optimum. Streams are short and one counter is built per trial.
    An operation is one ``cli.main`` call, from argument parsing to the CSV
    write and the JSON summary.
    """

    name = "resource-trials"
    TRIALS = 1
    # 8 alpha beta with alpha = 1.5^2 and beta = 2 * 3 / 1.5 + 1 (thm:greedy-private)
    RATIO_BOUND = 8.0 * 1.5 ** 2 * (2.0 * 3.0 / 1.5 + 1.0)
    ARGS = ("game", "run", "--game", "resource", "--instance", "random:resource",
            "--inst", "n_max=200", "--inst", "m_max=10", "--mech", "treesum", "--eps", "2",
            "--wrap", "clamp", "--wrap", "under", "--wrap", "mono",
            "--clamp-alpha", "1.5", "--clamp-beta", "3", "--json")

    def __init__(self, seed: int, out_dir: Path, unit_calls: int = 150):
        self.base_seed = seed * 1_000_003
        self.unit_calls = unit_calls
        self.csv_path = str(out_dir / f"{self.name}-{seed}.csv")

    def _argv(self, k: int) -> list:
        return list(self.ARGS) + ["--trials", str(self.TRIALS), "--out", self.csv_path,
                                  "--seed", str(self.base_seed + k)]

    def warm_up(self) -> None:
        _call_cli(self._argv(10 ** 6))

    def _call(self, out: Outcome, k: int, players: list, digest=None):
        """One checked call; returns its (start, end) or None if it failed."""
        try:
            rc, stdout, t0, t1 = _call_cli(self._argv(k))
            problems = checks.check_game_run(rc, stdout, self.csv_path, self.TRIALS,
                                             self.RATIO_BOUND)
            rows = harness.read_csv_results(self.csv_path)
            players.extend(int(round(float(r.final_counts.sum()))) for r in rows)
            if digest is not None:
                digest.update(stdout.encode())
                digest.update(Path(self.csv_path).read_bytes())
        except Exception as exc:  # a failed call is a failed operation, not a crash
            out.record(_failure(exc), f"{self.name} call {k}")
            return None
        out.record(problems, f"{self.name} call {k}")
        return t0, t1

    def _finish(self, out: Outcome, raw_ns, scaled_ns, players: list) -> Outcome:
        out.raw_op_ns, out.op_ns = raw_ns, scaled_ns
        if len(raw_ns):
            out.raw_ops_per_s = len(raw_ns) * self.TRIALS / (np.sum(raw_ns) / 1e9)
            out.ops_per_s = len(raw_ns) * self.TRIALS / (np.sum(scaled_ns) / 1e9)
        if players:
            out.properties = {"trials": len(players), "players_min": min(players),
                              "players_p50": statistics.median(players),
                              "players_mean": statistics.fmean(players),
                              "players_max": max(players)}
        return out

    def timed(self, deadline_ns: int) -> Outcome:
        out, spans, players = Outcome(), [], []
        k = 0
        with Speedometer() as speed:
            while clock() < deadline_ns:
                span = self._call(out, k, players)
                if span is not None:
                    spans.append(span)
                k += 1
        return self._finish(out, *speed.scale(*zip(*spans)), players) if spans else out

    def unit(self) -> Outcome:
        out, raw_ns, players = Outcome(), [], []
        digest = hashlib.sha256()
        for k in range(self.unit_calls):
            span = self._call(out, k, players, digest)
            if span is not None:
                raw_ns.append(span[1] - span[0])
        out.digest = digest.hexdigest()
        raw_ns = np.asarray(raw_ns, dtype=float)
        return self._finish(out, raw_ns, raw_ns, players)


# ---------------------------------------------------------------------------
# reproduce-suite


class ReproduceSuite:
    """Every registered scenario through `reproduce <name> --seed 0 --json`.

    Brute-force optima and wide-vector TreeSums dominate and the long-horizon
    step path is bypassed. Scenarios run round robin and the first pass
    always completes. An operation is one pass over every scenario: its
    latency is the sum of the pass's scenario times, and only complete passes
    count. Throughput counts scenarios against the sum of per-scenario
    medians over every run, the last partial pass included.

    The scenarios draw their random instances from the scenario seed, which
    stays at the CLI default of 0. Instance sizes move with that seed, and
    with them the brute-force work: over scenario seeds 0 to 15,
    thm:scheduling-greedy makes from 292k to 696k makespan evaluations, which
    would hide any change to the code. The workload seed sets the round-robin
    order instead.
    """

    name = "reproduce-suite"
    SCENARIO_SEED = 0

    def __init__(self, seed: int, names=None):
        self.names = list(names) if names is not None else [
            name for name, _ in harness.list_scenarios()]
        random.Random(seed).shuffle(self.names)

    def warm_up(self) -> None:
        """Scenarios are independent and share no cache; nothing to warm."""

    def _run(self, out: Outcome, name: str, digest=None):
        """One checked scenario; returns its (start, end) or None if it failed."""
        try:
            rc, stdout, t0, t1 = _call_cli(["reproduce", name, "--seed", str(self.SCENARIO_SEED),
                                            "--json"])
            problems = checks.check_scenario(rc, stdout, name)
        except Exception as exc:  # a failed scenario is a failed operation, not a crash
            out.record(_failure(exc), f"{self.name} {name}")
            return None
        if digest is not None:
            digest.update(stdout.encode())
        out.record(problems, f"{self.name} {name}")
        return t0, t1

    def _finish(self, out: Outcome, runs: list, speed=None) -> Outcome:
        """Pass and per-scenario times of the (pass, name, start, end) runs,
        raw and, given the speedometer that ran alongside them, scaled."""
        if not runs:
            return out
        passes, names, starts, ends = (np.array(v) for v in zip(*runs))
        raw_ns, scaled_ns = (speed.scale(starts, ends) if speed is not None else
                             (ends - starts,) * 2)
        complete = [p for p in np.unique(passes) if np.count_nonzero(passes == p) == len(self.names)]
        out.raw_op_ns = [raw_ns[passes == p].sum() for p in complete]
        out.op_ns = [scaled_ns[passes == p].sum() for p in complete]
        raw = {name: np.median(raw_ns[names == name]) for name in self.names}
        scaled = {name: np.median(scaled_ns[names == name]) for name in self.names}
        out.raw_ops_per_s = len(raw) / (sum(raw.values()) / 1e9)
        out.ops_per_s = len(scaled) / (sum(scaled.values()) / 1e9)
        out.properties = {"suite_s": sum(scaled.values()) / 1e9,
                          "raw_suite_s": sum(raw.values()) / 1e9,
                          "complete_passes": len(complete),
                          "scenario_s": {name: ns / 1e9 for name, ns in scaled.items()}}
        out.layer = {f"harness.scenario.{scenario_metric(name)}.s": ns / 1e9
                     for name, ns in raw.items()}
        return out

    def timed(self, deadline_ns: int) -> Outcome:
        out, runs = Outcome(), []
        pass_no = 0
        with Speedometer() as speed:
            while pass_no == 0 or clock() < deadline_ns:
                for name in self.names:
                    if pass_no and clock() >= deadline_ns:
                        break
                    span = self._run(out, name)
                    if span is not None:
                        runs.append((pass_no, name, *span))
                pass_no += 1
        return self._finish(out, runs, speed)

    def unit(self) -> Outcome:
        out = Outcome()
        digest = hashlib.sha256()
        runs = []
        for name in self.names:
            span = self._run(out, name, digest)
            if span is not None:
                runs.append((0, name, *span))
        out.digest = digest.hexdigest()
        return self._finish(out, runs)


def scenario_metric(name: str) -> str:
    """Scenario name as a metric-name component (':' is not allowed there)."""
    return name.replace(":", "_")


WORKLOADS = {cls.name: cls for cls in (CounterStream, ResourceTrials, ReproduceSuite)}


def make(name: str, seed: int, out_dir: Path):
    if name == ResourceTrials.name:
        return ResourceTrials(seed, out_dir)
    return WORKLOADS[name](seed)


def percentile_ms(values_ns, q) -> float:
    """The q-th percentile in ms; 0 when nothing was measured."""
    if not len(values_ns):
        return 0.0
    return float(np.percentile(np.asarray(values_ns, dtype=float), q)) / 1e6
