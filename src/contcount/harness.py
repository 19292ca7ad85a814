"""Experiment orchestration: seeded Monte-Carlo trials, competitive-ratio and
envelope-frequency measurement, and the judge of the scenarios in ``contcount.scenarios``.

Every run is deterministic given the base seed: trial t draws from the
substream (seed, t), so rerunning a config yields byte-identical CSV output.
The trials of one config may run in forked workers, one contiguous chunk of
trials per usable CPU (see ``_map_trials``); the parent joins their rows in
trial order, so the bytes are the same for any worker count, and the run
stays serial where forking is unsafe.
Worst-case competitive ratios are estimated as the max over trials (an
observed lower bound on the true worst case), so closed-form claims are
checked as one-sided inequalities. Minimization games report cost ratios
ALG/OPT, so every ratio reads ">= 1, smaller is better". Bounds of the form
SW >= OPT/c - additive are checked in exactly that two-term form.
"""

from __future__ import annotations

import inspect
import io
import math
import numbers
import os
import pickle
import signal
import stat
import sys
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from . import games, optimal
from . import instances as inst_lib
from .counters import (
    AccuracyEnvelope,
    CounterMechanism,
    EmptyCounter,
    FTSum,
    MonotoneWrapper,
    PerfectCounter,
    TreeSum,
    UnderestimatorWrapper,
    ZeroFailureWrapper,
    envelope_check,
)
from .errors import ParameterError, ValidationError, lookup
from .games import GAMES, verify_trace
from .noise import RandomSource
from .strategies import make_strategy


# mechanism name -> build(spec, n, m, rng, update_bound): the --mech choices
_MECHANISMS = {
    "treesum": lambda s, n, m, rng, b: TreeSum(n, m, s.eps, rng, gamma=s.gamma,
                                               c_tree=s.c_tree, update_bound=b),
    "ftsum": lambda s, n, m, rng, b: FTSum(n, m, s.eps, s.alpha, s.gamma, s.c_tree, rng,
                                           update_bound=b),
    "perfect": lambda s, n, m, rng, b: PerfectCounter(n, m, b),
    "empty": lambda s, n, m, rng, b: EmptyCounter(n, m, b),
}

# wrapper name -> wrap(spec, inner): the --wrap choices
_WRAPPERS = {
    # an unset target coordinate keeps the inner declared one
    "clamp": lambda s, inner: ZeroFailureWrapper(inner, AccuracyEnvelope(
        inner.envelope.alpha if s.clamp_alpha is None else s.clamp_alpha,
        inner.envelope.beta if s.clamp_beta is None else s.clamp_beta, 0.0)),
    "under": lambda s, inner: UnderestimatorWrapper(inner),
    "mono": lambda s, inner: MonotoneWrapper(inner),
}


@dataclass(frozen=True)
class MechanismSpec:
    """Counter mechanism recipe: base mechanism plus an ordered wrapper chain."""

    mech: str = "perfect"            # a _MECHANISMS name
    eps: float = 1.0
    alpha: float = 2.0
    gamma: float = 0.1
    c_tree: float = 4.0
    wraps: tuple = ()                # _WRAPPERS names, innermost first
    clamp_alpha: float | None = None
    clamp_beta: float | None = None
    zero_noise: bool = False

    def __post_init__(self):
        lookup(_MECHANISMS, self.mech, "mechanism")
        if not isinstance(self.wraps, (tuple, list)):
            raise ParameterError(f"wraps must be a sequence of wrapper names, got {self.wraps!r}")
        for wrap in self.wraps:
            lookup(_WRAPPERS, wrap, "wrapper")

    def build(self, n: int, m: int, rng: RandomSource,
              update_bound: float = 1.0) -> CounterMechanism:
        rng = RandomSource(rng.seed, rng.stream_id, self.zero_noise or rng.zero_noise)
        mech = _MECHANISMS[self.mech](self, n, m, rng, update_bound)
        for wrap in self.wraps:
            mech = _WRAPPERS[wrap](self, mech)
        return mech


# game name -> (play function, exact solver); the rules are games.GAMES
_ENGINES = {
    "resource": (games.play_resource_sharing, optimal.opt_resource_sharing),
    "future": (games.play_future_dependent, optimal.opt_future_dependent),
    "cut": (games.play_cut, optimal.opt_cut),
    "scheduling": (games.play_scheduling, optimal.opt_scheduling),
    "costshare": (games.play_cost_sharing, optimal.opt_cost_sharing),
}


@dataclass
class ExperimentConfig:
    game: str
    instance: object                      # instance, 'paper:<name>', 'random:<name>', or path
    mechanism: MechanismSpec = field(default_factory=MechanismSpec)
    strategy: str = "greedy"
    trials: int = 1
    seed: int = 0
    compute_opt: bool = True
    instance_params: dict = field(default_factory=dict)
    splits: int = 1                       # >1: discretized continuous investments

    def __post_init__(self):
        rule = lookup(GAMES, self.game, "game")
        if (isinstance(self.trials, bool) or not isinstance(self.trials, numbers.Integral)
                or self.trials < 1):
            raise ParameterError(f"trial count must be >= 1 and an integer, got {self.trials!r}")
        RandomSource(self.seed)           # refuses a seed that is not a 64-bit unsigned int
        make_strategy(self.strategy)      # refuses an unknown strategy spec
        games.check_splits(rule, self.splits)


@dataclass
class TrialResult:
    """One trial's outcome. ``envelope_ok`` says whether every value a player
    saw lay in the mechanism's declared envelope: it checks each player's view
    of the release (``PlayTrace.displayed``), which on cut is 2 of the
    counter's 2n coordinates per step, not the whole release."""

    trial: int
    seed: int
    sw: float
    psw: float
    opt: float
    ratio: float
    envelope_ok: bool
    alg_metric: float
    final_counts: np.ndarray


def _ratio(sense: str, alg: float, opt: float) -> float:
    better, worse = (opt, alg) if sense == "max" else (alg, opt)
    if worse == 0.0:
        return 1.0 if better == 0.0 else math.inf
    return better / worse


def _trial_instance(config: ExperimentConfig, trial: int):
    """Trial ``trial``'s random source (seed, trial) and the instance of
    ``config`` it draws, from substream 0; the mechanism draws from substream 1."""
    rng = RandomSource(config.seed, 0).substream(trial)
    return rng, inst_lib.resolve_instance(GAMES[config.game], config.instance,
                                          rng.substream(0), **config.instance_params)


def run_trial(config: ExperimentConfig, trial: int, cached_opt: float | None = None):
    """Play one trial of ``config``; returns (result, trace, instance, mech).

    The trace must pass ``verify_trace``, and unit-demand play may not beat
    the exact optimum. ``envelope_ok`` checks the players' views only (see
    ``TrialResult``).
    """
    rule = GAMES[config.game]
    play_game, opt_solver = _ENGINES[config.game]
    rng, instance = _trial_instance(config, trial)
    mech = config.mechanism.build(instance.n, rule.dim(instance), rng.substream(1),
                                  rule.bound(instance))
    trace = play_game(instance, mech, make_strategy(config.strategy), config.splits)
    verify_trace(trace)
    opt_value = math.nan
    if config.compute_opt:
        opt_value = cached_opt if cached_opt is not None else opt_solver(instance).value
    alg = trace.metric
    ratio = _ratio(rule.sense, alg, opt_value) if config.compute_opt else math.nan
    # fractional play may beat the unit-demand optimum; unit-demand play may not
    gain = alg - opt_value if rule.sense == "max" else opt_value - alg
    if config.compute_opt and config.splits == 1 and gain > 1e-9:
        raise ValidationError(f"{rule.name} play reached {alg!r}, beyond the exact "
                              f"optimum {opt_value!r}")
    ok, _ = envelope_check(trace.true_before, trace.displayed, mech.envelope)
    result = TrialResult(
        trial=trial,
        seed=config.seed,
        sw=trace.social_welfare,
        psw=trace.perceived_welfare,
        opt=opt_value,
        ratio=ratio,
        envelope_ok=ok,
        alg_metric=alg,
        final_counts=trace.final_usage,
    )
    return result, trace, instance, mech


_WORKERS = None    # processes for one config's trials; None: the usable CPUs


def _worker_count(trials: int) -> int:
    """How many chunks to cut ``trials`` into: 1 (serial) unless forking is safe."""
    if (not hasattr(os, "fork") or sys.gettrace() or sys.getprofile()
            or threading.active_count() > 1):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(_WORKERS or cpus or 1, trials)


def _chunks(trials: int, workers: int) -> list:
    """``range(trials)`` cut into ``workers`` contiguous, near-equal ranges."""
    return [range(trials * k // workers, trials * (k + 1) // workers) for k in range(workers)]


def _fork_chunk(run, trials: range):
    """Fork a child that pickles ``(True, run(trials))``, or ``(False, error)``,
    into a pipe and exits; returns (pid, read end of the pipe)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            try:
                payload = (True, run(trials))
            except BaseException as exc:  # sent to the parent, which re-raises it
                payload = (False, exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(payload, pipe)
            code = 0
        finally:
            os._exit(code)  # never return into the caller, flush its stdio or run its atexit
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _map_trials(config: ExperimentConfig, fn) -> list:
    """``[fn(*run_trial(config, t)) for t in range(config.trials)]``, in trial order.

    A fixed (not ``random:``) instance is resolved, and its optimum solved,
    once before any trial: every trial plays that instance object. Each trial
    keeps its row, not its trace or mechanism. The parent runs the first chunk
    of trials and forks a child for each later one (or runs it itself if fork
    fails). It raises the error of the lowest failing trial, as a serial run
    would, and no child outlives the call.
    """
    cached_opt = None
    if not (isinstance(config.instance, str) and config.instance.startswith("random:")):
        instance = _trial_instance(config, 0)[1]
        cached_opt = _ENGINES[config.game][1](instance).value if config.compute_opt else None
        config = replace(config, instance=instance, instance_params={})

    def run(trials):
        return [fn(*run_trial(config, t, cached_opt)) for t in trials]

    chunks = _chunks(config.trials, _worker_count(config.trials))
    rows, children = [], {}             # children: chunk index -> (pid, read end)
    try:
        for k in range(1, len(chunks)):
            try:
                children[k] = _fork_chunk(run, chunks[k])
            except OSError:
                break
        for k, trials in enumerate(chunks):
            if k not in children:
                rows += run(trials)
                continue
            pid, pipe = children[k]
            data = pipe.read()          # to EOF first: a payload can exceed the pipe buffer
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[k]
            if status != 0:
                raise RuntimeError(f"trial worker for chunk {k} (trials {trials.start}-"
                                   f"{trials.stop - 1}) left no result; wait status {status}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            rows += value
        return rows
    finally:
        for pid, pipe in children.values():
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


def run_experiment(config: ExperimentConfig):
    """Run all trials; returns (results, summary), writing no file. Deterministic in the seed."""
    results = _map_trials(config, lambda result, *_: result)
    summary = summarize(results)
    summary.update(game=config.game, strategy=config.strategy, mechanism=config.mechanism.mech,
                   wraps=list(config.mechanism.wraps), seed=config.seed)
    return results, summary


def summarize(results) -> dict:
    """Summary statistics computable from the per-trial CSV alone."""
    if len(results) == 1:  # one row is its own mean, extremes and quantiles
        (r,) = results
        ratio = float(r.ratio)
        kept = ratio if math.isfinite(ratio) else math.nan
        return {"trials": 1, "mean_sw": float(r.sw), "mean_ratio": kept,
                "max_ratio": ratio, "min_ratio": ratio, "median_ratio": kept,
                "q90_ratio": kept, "envelope_pass_rate": float(r.envelope_ok)}
    ratios = np.array([r.ratio for r in results], dtype=float)
    finite = ratios[np.isfinite(ratios)]
    return {
        "trials": len(results),
        "mean_sw": float(np.mean([r.sw for r in results])),
        "mean_ratio": float(finite.mean()) if finite.size else math.nan,
        "max_ratio": float(ratios.max()) if ratios.size else math.nan,
        "min_ratio": float(ratios.min()) if ratios.size else math.nan,
        "median_ratio": float(np.median(finite)) if finite.size else math.nan,
        "q90_ratio": float(np.quantile(finite, 0.9)) if finite.size else math.nan,
        "envelope_pass_rate": float(np.mean([r.envelope_ok for r in results])),
    }


CSV_HEADER = "trial,seed,sw,psw,opt,ratio,envelope_ok,alg_metric,final_counts"


def results_to_csv(results) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in results:
        counts = ";".join(repr(float(c)) for c in r.final_counts)
        buf.write(f"{r.trial},{r.seed},{r.sw!r},{r.psw!r},{r.opt!r},{r.ratio!r},"
                  f"{int(r.envelope_ok)},{r.alg_metric!r},{counts}\n")
    return buf.getvalue()


def write_csv(results, path: str) -> None:
    _write_csv_text(results_to_csv(results), path)


def _write_csv_text(text: str, path: str) -> None:
    """Overwrite ``path`` in place: open it without O_TRUNC and cut a regular
    file (not a device such as /dev/null) to length after the write. On ext4,
    closing a file truncated to zero and rewritten allocates its blocks at
    once; a cut to a nonzero length after the write does not. A process killed
    between the write and the cut leaves the old file's tail after the rows."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise ParameterError(f"cannot write CSV file '{path}': {exc.strerror}") from exc


def read_csv_results(path: str):
    """Reload per-trial rows (enough to recompute the summary). A row with the
    wrong cell count or a non-numeric cell raises ValidationError."""
    header, *lines = inst_lib._read_text(path, "CSV").splitlines() or [""]
    if header.strip() != CSV_HEADER:
        raise ParameterError(f"unexpected CSV header: {header.strip()}")
    width = CSV_HEADER.count(",") + 1
    rows = []
    for number, line in enumerate(lines, start=2):
        parts = line.split(",")
        try:
            if len(parts) != width:
                raise ValueError(f"{len(parts)} cells, expected {width}")
            counts = np.array([float(v) for v in parts[8].split(";") if v])
            rows.append(TrialResult(int(parts[0]), int(parts[1]), float(parts[2]),
                                    float(parts[3]), float(parts[4]), float(parts[5]),
                                    bool(int(parts[6])), float(parts[7]), counts))
        except ValueError as exc:
            raise ValidationError(f"malformed CSV line {number}: {exc}") from exc
    return rows


# ---------------------------------------------------------------------------
# scenario registry


@dataclass(frozen=True)
class Check:
    """One inequality a scenario claims: ``value sense bound`` on every trial,
    or on the mean value over trials when ``mean`` is set. ``value`` and a
    callable ``bound`` take one trial's ``(result, trace, instance, mech)``; a
    mean check takes a constant bound. ``tol`` is the violation the check
    forgives; a strict ``<`` forgives none."""

    name: str
    value: object
    sense: str                    # '<=', '<', '>=' or '=='
    bound: object                 # a number, or a function of one trial
    tol: float = 0.0
    mean: bool = False

    def __post_init__(self):
        if self.sense not in ("<=", "<", ">=", "=="):
            raise ParameterError(f"unknown check sense '{self.sense}'")

    def slack(self, value: float, bound: float) -> float:
        """How far ``value`` lies inside ``bound``: negative outside, NaN unknown."""
        if self.sense == "==":
            return 0.0 - abs(value - bound)     # 0.0, not -0.0, at equality
        return value - bound if self.sense == ">=" else bound - value

    def holds(self, slack: float) -> bool:
        return slack > 0.0 if self.sense == "<" else slack >= -self.tol


@dataclass
class ScenarioReport:
    name: str
    claim: str
    passed: bool
    checks: dict                  # check name -> {value, bound, slack, violations}
    lines: list


_SCENARIOS: dict = {}


def _scenario(name: str, claim: str, *controls: dict):
    """Register ``fn(**params) -> (config, checks)`` and its ``controls`` as ``name``."""
    def register(fn):
        _SCENARIOS[name] = (claim, fn, controls)
        return fn
    return register


def list_scenarios():
    return [(name, claim) for name, (claim, *_) in sorted(_SCENARIOS.items())]


def _judge(check: Check, rows: list) -> dict:
    """One check over its per-trial (value, bound) rows: the row with the least
    slack (a NaN slack first) and the number of rows that violate it."""
    if check.mean:
        rows = [(float(np.mean([value for value, _ in rows])), float(check.bound))]
    slacks = [check.slack(value, bound) for value, bound in rows]
    worst = min(range(len(rows)), key=lambda i: -math.inf if math.isnan(slacks[i]) else slacks[i])
    value, bound = rows[worst]
    return {"value": value, "bound": bound, "slack": slacks[worst],
            "violations": sum(not check.holds(s) for s in slacks)}


def reproduce(name: str, seed: int = 0, **overrides) -> ScenarioReport:
    """Run a registered scenario and judge its checks on every trial; it
    passes when no check has a violation. A bad seed, or a parameter its
    builder rejects, raises ParameterError."""
    return _run_scenario(name, seed, overrides, {})


def _run_scenario(name: str, seed: int, overrides: dict, changes: dict) -> ScenarioReport:
    """reproduce, with the run seed and the ``changes`` fields set on the built config."""
    claim, fn, _ = lookup(_SCENARIOS, name, "scenario", "see list-scenarios")
    params = inspect.signature(fn).parameters
    for key in overrides:
        if key not in params:
            raise ParameterError(f"scenario '{name}' takes no '{key}' parameter")
    try:
        config, checks = fn(**overrides)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ParameterError(f"bad parameters {overrides} for scenario '{name}': {exc}") from exc
    config = replace(config, seed=seed, **changes)

    def evaluate(*trial):
        return [(float(check.value(*trial)),
                 float(check.bound(*trial) if callable(check.bound) else check.bound))
                for check in checks]

    rows = _map_trials(config, evaluate)
    judged = [_judge(check, [row[i] for row in rows]) for i, check in enumerate(checks)]
    lines = [f"{c.name}{' (mean)' if c.mean else ''}: {r['value']:.6g} {c.sense} "
             f"{r['bound']:.6g}, slack {r['slack']:.4g}, "
             f"violations {r['violations']}/{1 if c.mean else config.trials}"
             for c, r in zip(checks, judged)]
    passed = all(r["violations"] == 0 for r in judged)
    return ScenarioReport(name, claim, passed, {c.name: r for c, r in zip(checks, judged)}, lines)


__all__ = [
    "MechanismSpec",
    "ExperimentConfig",
    "TrialResult",
    "Check",
    "ScenarioReport",
    "run_trial",
    "run_experiment",
    "summarize",
    "results_to_csv",
    "write_csv",
    "read_csv_results",
    "list_scenarios",
    "reproduce",
]
