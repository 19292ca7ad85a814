"""Experiment orchestration: seeded Monte-Carlo trials, competitive-ratio and
envelope-frequency measurement, and named reproduction scenarios.

Every run is deterministic given the base seed: trial t draws from the
substream (seed, t), so rerunning a config yields byte-identical CSV output.
Worst-case competitive ratios are estimated as the max over trials (an
observed lower bound on the true worst case), so closed-form claims are
checked as one-sided inequalities. Minimization games report cost ratios
ALG/OPT, so every ratio reads ">= 1, smaller is better". Bounds of the form
SW >= OPT/c - additive are checked in exactly that two-term form.

Randomized scenarios loop run_trial over one ExperimentConfig, except
prop:private-beats-perfect: its warm-up counter draws from trial
substream 2, which no MechanismSpec describes.
"""

from __future__ import annotations

import inspect
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import instances as inst_lib
from . import optimal
from .counters import (
    AccuracyEnvelope,
    CounterMechanism,
    EmptyCounter,
    FTSum,
    MonotoneWrapper,
    PerfectCounter,
    TreeSum,
    UnderestimatorWrapper,
    UniformWarmupCounter,
    ZeroFailureWrapper,
    envelope_check,
)
from .errors import ParameterError, UnknownScenarioError
from .games import (
    COST_SHARING,
    CUT,
    FUTURE_DEPENDENT,
    RESOURCE,
    SCHEDULING,
    play_cost_sharing,
    play_cut,
    play_future_dependent,
    play_resource_sharing,
    play_resource_sharing_fractional,
    play_scheduling,
    verify_trace,
)
from .noise import RandomSource
from .strategies import Greedy, is_undominated, make_strategy


@dataclass(frozen=True)
class MechanismSpec:
    """Counter mechanism recipe: base mechanism plus an ordered wrapper chain."""

    mech: str = "perfect"            # treesum | ftsum | perfect | empty
    eps: float = 1.0
    alpha: float = 2.0
    gamma: float = 0.1
    c_tree: float = 4.0
    wraps: tuple = ()                # any of: clamp | under | mono
    clamp_alpha: float | None = None
    clamp_beta: float | None = None
    zero_noise: bool = False

    def build(self, n: int, m: int, rng: RandomSource,
              update_bound: float = 1.0) -> CounterMechanism:
        rng = RandomSource(rng.seed, rng.stream_id, self.zero_noise or rng.zero_noise)
        if self.mech == "treesum":
            mech = TreeSum(n, m, self.eps, rng, gamma=self.gamma,
                           c_tree=self.c_tree, update_bound=update_bound)
        elif self.mech == "ftsum":
            mech = FTSum(n, m, self.eps, self.alpha, self.gamma, self.c_tree,
                         rng, update_bound=update_bound)
        elif self.mech == "perfect":
            mech = PerfectCounter(n, m, update_bound)
        elif self.mech == "empty":
            mech = EmptyCounter(n, m, update_bound)
        else:
            raise ParameterError(f"unknown mechanism '{self.mech}'")
        for wrap in self.wraps:
            if wrap == "clamp":
                target = None
                if self.clamp_alpha is not None or self.clamp_beta is not None:
                    target = AccuracyEnvelope(self.clamp_alpha or 1.0,
                                              self.clamp_beta or 0.0, 0.0)
                mech = ZeroFailureWrapper(mech, target)
            elif wrap == "under":
                mech = UnderestimatorWrapper(mech)
            elif wrap == "mono":
                mech = MonotoneWrapper(mech)
            else:
                raise ParameterError(f"unknown wrapper '{wrap}'")
        return mech


# game name -> (play function, exact solver, rule): the one per-game table
_ENGINES = {
    "resource": (play_resource_sharing, optimal.opt_resource_sharing, RESOURCE),
    "future": (play_future_dependent, optimal.opt_future_dependent, FUTURE_DEPENDENT),
    "market": (play_future_dependent, optimal.opt_future_dependent, FUTURE_DEPENDENT),
    "cut": (play_cut, optimal.opt_cut, CUT),
    "scheduling": (play_scheduling, optimal.opt_scheduling, SCHEDULING),
    "costshare": (play_cost_sharing, optimal.opt_cost_sharing, COST_SHARING),
}


@dataclass
class ExperimentConfig:
    game: str
    instance: object                      # instance, 'paper:<name>', 'random:<kind>', or path
    mechanism: MechanismSpec = field(default_factory=MechanismSpec)
    strategy: str = "greedy"
    trials: int = 1
    seed: int = 0
    compute_opt: bool = True
    instance_params: dict = field(default_factory=dict)
    out: str | None = None
    splits: int = 1                       # >1: discretized continuous investments

    def __post_init__(self):
        if self.game not in _ENGINES:
            raise ParameterError(f"unknown game '{self.game}' "
                                 f"(have: {', '.join(sorted(_ENGINES))})")
        if self.trials < 1:
            raise ParameterError("trial count must be >= 1")
        if self.splits < 1:
            raise ParameterError("splits must be >= 1")
        if self.splits > 1 and self.game != "resource":
            raise ParameterError("fractional investments apply to the resource game only")


@dataclass
class TrialResult:
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
    if sense == "max":
        better, worse = opt, alg
    else:
        better, worse = alg, opt
    if worse == 0.0:
        return 1.0 if better == 0.0 else math.inf
    return better / worse


def run_trial(config: ExperimentConfig, trial: int, cached_opt: float | None = None):
    play_game, opt_solver, rule = _ENGINES[config.game]
    rng = RandomSource(config.seed, 0).substream(trial)
    instance = inst_lib.resolve_instance(rule.kind, config.instance,
                                         rng.substream(0), **config.instance_params)
    mech = config.mechanism.build(instance.n, rule.dim(instance), rng.substream(1),
                                  rule.bound(instance))
    envelope = mech.envelope
    strategy = make_strategy(config.strategy)
    if config.splits > 1:
        trace = play_resource_sharing_fractional(instance, mech, strategy, config.splits)
    else:
        trace = play_game(instance, mech, strategy)
    verify_trace(trace, instance)
    opt_value = math.nan
    if config.compute_opt:
        opt_value = cached_opt if cached_opt is not None else opt_solver(instance).value
    alg = rule.metric(trace)
    ratio = _ratio(rule.sense, alg, opt_value) if config.compute_opt else math.nan
    if (config.compute_opt and rule.sense == "max" and config.splits == 1
            and trace.social_welfare > opt_value + 1e-9):
        raise AssertionError("simulated welfare exceeded the exact optimum")
    ok, _ = envelope_check(trace.true_matrix(), trace.displayed_matrix(), envelope)
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


def run_experiment(config: ExperimentConfig):
    """Run all trials; returns (results, summary). Deterministic in the seed."""
    results = []
    cached_opt = None
    fixed_instance = not (isinstance(config.instance, str)
                          and config.instance.startswith("random:"))
    for trial in range(config.trials):
        result, _, _, _ = run_trial(config, trial, cached_opt)
        if fixed_instance and config.compute_opt:
            cached_opt = result.opt
        results.append(result)
    summary = summarize(results)
    summary["game"] = config.game
    summary["strategy"] = config.strategy
    summary["mechanism"] = config.mechanism.mech
    summary["wraps"] = list(config.mechanism.wraps)
    summary["seed"] = config.seed
    if config.out:
        write_csv(results, config.out)
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
    text = results_to_csv(results)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write CSV file '{path}': {exc.strerror}") from exc


def read_csv_results(path: str):
    """Reload per-trial rows (enough to recompute the summary)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ParameterError(f"unexpected CSV header: {header}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            counts = np.array([float(v) for v in parts[8].split(";") if v])
            rows.append(TrialResult(int(parts[0]), int(parts[1]), float(parts[2]),
                                    float(parts[3]), float(parts[4]), float(parts[5]),
                                    bool(int(parts[6])), float(parts[7]), counts))
    return rows


# ---------------------------------------------------------------------------
# scenario registry


@dataclass
class ScenarioReport:
    name: str
    claim: str
    passed: bool
    measured: dict
    lines: list


_SCENARIOS: dict = {}


def _scenario(name: str, claim: str):
    def register(fn):
        _SCENARIOS[name] = (claim, fn)
        return fn
    return register


def list_scenarios():
    return [(name, claim) for name, (claim, _) in sorted(_SCENARIOS.items())]


def reproduce(name: str, seed: int = 0, **overrides) -> ScenarioReport:
    """Run a registered scenario; returns its report (claim, measurements, PASS/FAIL)."""
    if name not in _SCENARIOS:
        raise UnknownScenarioError(
            f"unknown scenario '{name}' (see list-scenarios)")
    claim, fn = _SCENARIOS[name]
    if overrides.get("trials", 1) < 1:
        raise ParameterError("trial count must be >= 1")
    params = inspect.signature(fn).parameters
    for key in overrides:
        if key not in params:
            raise ParameterError(f"scenario '{name}' takes no '{key}' parameter")
    passed, measured, lines = fn(seed=seed, **overrides)
    return ScenarioReport(name, claim, bool(passed), measured, lines)


@_scenario("thm:greedy4",
           "with perfect counters, greedy is 4-competitive for sequential resource sharing")
def _greedy4(seed: int = 0, trials: int = 200):
    config = ExperimentConfig(
        game="resource", instance="random:resource",
        mechanism=MechanismSpec(mech="perfect"),
        trials=trials, seed=seed,
        instance_params={"n_max": 50, "m_max": 10})
    results, summary = run_experiment(config)
    max_cr = summary["max_ratio"]
    passed = max_cr <= 4.0 + 1e-9
    return (passed,
            {"max_cr": max_cr, "mean_cr": summary["mean_ratio"], "trials": trials},
            [f"max competitive ratio over {trials} random instances: {max_cr:.6f}",
             "bound: 4 + 1e-9"])


@_scenario("sec1.1:illustrative",
           "blind greedy on the shared-vs-private instance earns only the harmonic sum "
           "H_n against an all-private benchmark of n(1-eps)")
def _illustrative(seed: int = 0, n: int = 100, eps: float = 0.01):
    instance = inst_lib.illustrative_shared_vs_private(n, eps)
    config = ExperimentConfig(game="resource", instance=instance,
                              mechanism=MechanismSpec(mech="empty"), seed=seed)
    result, trace, _, _ = run_trial(config, 0)
    h_n = inst_lib.harmonic_number(n)
    benchmark = optimal.resource_assignment_value(instance, [i + 1 for i in range(n)])
    exact = result.opt
    cr_benchmark = benchmark / result.sw
    passed = (abs(result.sw - h_n) <= 1e-9
              and benchmark == n * (1.0 - eps)
              and exact >= benchmark
              and abs(cr_benchmark - benchmark / h_n) <= 1e-9)
    return (passed,
            {"sw": result.sw, "h_n": h_n, "benchmark": benchmark,
             "exact_opt": exact, "cr_benchmark": cr_benchmark},
            [f"welfare {result.sw:.6f} (harmonic sum {h_n:.6f})",
             f"all-private benchmark {benchmark}, exact matching optimum {exact}",
             f"ratio vs benchmark: {cr_benchmark:.4f}"])


@_scenario("thm:noinfo",
           "with empty counters, fearing a twin makes the shared resource undominated "
           "and welfare collapses from n*H to n")
def _noinfo(seed: int = 0, n: int = 10, high: float = 100.0):
    instance = inst_lib.twin_temptation(n, high)
    config = ExperimentConfig(game="resource", instance=instance,
                              mechanism=MechanismSpec(mech="empty"),
                              strategy="scripted:fear-a-twin", seed=seed)
    result, _, _, _ = run_trial(config, 0)
    passed = result.sw == float(n) and result.opt == n * high
    return (passed,
            {"sw": result.sw, "opt": result.opt, "ratio": result.ratio},
            [f"welfare {result.sw} vs optimum {result.opt} (ratio {result.ratio:.1f})"])


@_scenario("thm:noinfospecial",
           "even with slowly decaying values, empty counters admit undominated play "
           "with welfare H_n against an optimum of n^2")
def _noinfospecial(seed: int = 0, n: int = 25):
    instance = inst_lib.slow_decay_temptation(n)
    config = ExperimentConfig(game="resource", instance=instance,
                              mechanism=MechanismSpec(mech="empty"),
                              strategy="scripted:flat-resource-temptation", seed=seed)
    result, _, _, _ = run_trial(config, 0)
    h_n = inst_lib.harmonic_number(n)
    passed = abs(result.sw - h_n) <= 1e-12 and result.opt == float(n) ** 2
    return (passed,
            {"sw": result.sw, "opt": result.opt, "ratio": result.ratio},
            [f"welfare {result.sw:.6f} (H_{n}) vs optimum {result.opt}"])


@_scenario("thm:lb-undom",
           "under any private signal consistent with the first player having taken the "
           "fragile resource, avoiding it stays undominated for the second player")
def _lb_undom(seed: int = 0, rho: float = 0.05, beta: float = 1.0):
    instance = inst_lib.fragile_first_mover(rho)
    envelope = AccuracyEnvelope(1.0, beta, 0.0)
    displayed = np.zeros(2)
    undominated = is_undominated(1, [0, 1], displayed, envelope, instance.curves)
    sw_spite = optimal.resource_assignment_value(instance, [1, 1])
    opt = optimal.opt_resource_sharing(instance).value
    passed = undominated and abs(sw_spite - 2 * rho) <= 1e-12 and abs(opt - (1 + rho)) <= 1e-12
    return (passed,
            {"undominated": undominated, "sw_spite": sw_spite, "opt": opt},
            [f"avoiding the fragile resource undominated: {undominated}",
             f"spiteful welfare {sw_spite:.4f} vs optimum {opt:.4f}"])


@_scenario("lemma:perceived",
           "greedy against an (alpha, beta) underestimator earns at least a "
           "1/(2 alpha beta) fraction of its perceived welfare")
def _perceived(seed: int = 0, trials: int = 500):
    spec = MechanismSpec(mech="treesum", eps=2.0, wraps=("clamp", "under"),
                         clamp_alpha=1.5, clamp_beta=3.0)
    config = ExperimentConfig(game="resource", instance="random:resource",
                              mechanism=spec, trials=trials, seed=seed,
                              compute_opt=False,
                              instance_params={"n_max": 40, "m_max": 8})
    alpha, beta = 1.5 ** 2, 2.0 * 3.0 / 1.5
    results, _ = run_experiment(config)
    violations = sum(1 for r in results if r.psw > 2.0 * alpha * beta * r.sw + 1e-9)
    worst = max([0.0] + [r.psw / r.sw for r in results if r.sw > 0])
    passed = violations == 0
    return (passed,
            {"violations": violations, "max_psw_over_sw": worst,
             "bound": 2.0 * alpha * beta},
            [f"max PSW/SW {worst:.3f} vs bound 2*alpha*beta = {2 * alpha * beta:.1f}",
             f"violations: {violations}/{trials}"])


@_scenario("thm:greedy-private",
           "greedy against a monotone (alpha, beta) underestimator counter is "
           "8*alpha*beta-competitive for resource sharing")
def _greedy_private(seed: int = 0, trials: int = 200):
    spec = MechanismSpec(mech="treesum", eps=2.0, wraps=("clamp", "under", "mono"),
                         clamp_alpha=1.5, clamp_beta=3.0)
    config = ExperimentConfig(game="resource", instance="random:resource",
                              mechanism=spec, trials=trials, seed=seed,
                              instance_params={"n_max": 40, "m_max": 8})
    results, summary = run_experiment(config)
    alpha, beta = 1.5 ** 2, 2.0 * 3.0 / 1.5 + 1.0
    bound = 8.0 * alpha * beta
    passed = summary["max_ratio"] <= bound + 1e-9 and summary["envelope_pass_rate"] == 1.0
    return (passed,
            {"max_cr": summary["max_ratio"], "bound": bound,
             "envelope_pass_rate": summary["envelope_pass_rate"]},
            [f"max competitive ratio {summary['max_ratio']:.3f} vs "
             f"8*alpha*beta = {bound:.1f}"])


@_scenario("thm:polylog",
           "the flag/tree counter behind an underestimator wrapper keeps greedy's "
           "competitive ratio within 8*alpha*beta of optimal")
def _polylog(seed: int = 0, trials: int = 50):
    spec = MechanismSpec(mech="ftsum", eps=1.0, alpha=2.0, gamma=0.1,
                         wraps=("clamp", "under", "mono"))
    config = ExperimentConfig(game="resource", instance="random:resource",
                              mechanism=spec, seed=seed,
                              instance_params={"n_max": 40, "m_max": 6})
    violations = 0
    max_cr = 0.0
    for trial in range(trials):
        result, _, _, mech = run_trial(config, trial)
        # final envelope after clamp -> under -> mono on the declared FTSum one
        bound = 8.0 * mech.envelope.alpha * (mech.envelope.beta + 1e-12)
        max_cr = max(max_cr, result.ratio)
        if result.ratio > bound + 1e-9:
            violations += 1
    passed = violations == 0
    return (passed,
            {"max_cr": max_cr, "violations": violations},
            [f"max competitive ratio {max_cr:.3f}; all trials within their "
             "documented 8*alpha*beta bounds (analytic beta is loose)"])


@_scenario("lemma:cut-cycle",
           "on the 2n-cycle, all-blue-until-forced is undominated play with welfare 4 "
           "against an optimum of 4n")
def _cut_cycle(seed: int = 0, n: int = 20):
    instance = inst_lib.cut_cycle(n)
    config = ExperimentConfig(game="cut", instance=instance,
                              mechanism=MechanismSpec(mech="perfect"),
                              strategy="scripted:all-blue-cycle", seed=seed)
    result, _, _, _ = run_trial(config, 0)
    passed = result.sw == 4.0 and result.opt == 4.0 * n
    return (passed,
            {"sw": result.sw, "opt": result.opt, "ratio": result.ratio},
            [f"welfare {result.sw} vs optimum {result.opt} (ratio {result.ratio:.1f} = n)"])


@_scenario("thm:cut-greedy-perfect",
           "greedy coloring with exact neighbor counts is 2-competitive")
def _cut_perfect(seed: int = 0, trials: int = 100):
    config = ExperimentConfig(game="cut", instance="random:cut",
                              mechanism=MechanismSpec(mech="perfect"),
                              trials=trials, seed=seed,
                              instance_params={"n_max": 16, "p": 0.35})
    results, summary = run_experiment(config)
    passed = summary["max_ratio"] <= 2.0 + 1e-9
    return (passed,
            {"max_cr": summary["max_ratio"]},
            [f"max competitive ratio {summary['max_ratio']:.4f} vs bound 2"])


@_scenario("thm:cut-private",
           "greedy coloring with clamped (alpha, beta) counters keeps welfare above "
           "2|E|/(2 alpha^2) - 2 beta n / alpha")
def _cut_private(seed: int = 0, trials: int = 100, alpha: float = 2.0, beta: float = 2.0):
    spec = MechanismSpec(mech="treesum", eps=3.0, wraps=("clamp",),
                         clamp_alpha=alpha, clamp_beta=beta)
    config = ExperimentConfig(game="cut", instance="random:cut", mechanism=spec,
                              seed=seed, compute_opt=False,
                              instance_params={"n_max": 30, "p": 0.3})
    worst_margin = math.inf
    violations = 0
    for trial in range(trials):
        result, _, instance, _ = run_trial(config, trial)
        bound = (2.0 * len(instance.edges)) / (2.0 * alpha ** 2) \
            - 2.0 * beta * instance.n / alpha
        margin = result.sw - bound
        worst_margin = min(worst_margin, margin)
        if margin < -1e-9:
            violations += 1
    passed = violations == 0
    return (passed,
            {"violations": violations, "worst_margin": worst_margin},
            [f"violations: {violations}/{trials}; worst margin {worst_margin:.3f}"])


@_scenario("thm:scheduling-greedy",
           "greedy scheduling with clamped (alpha, beta) counters keeps the makespan "
           "below alpha^(2n+1)(beta + 2n beta + sum t*) + beta; with perfect counters "
           "it is below sum t*")
def _scheduling(seed: int = 0, trials: int = 100, alpha: float = 1.5, beta: float = 2.0):
    spec = MechanismSpec(mech="treesum", eps=3.0, wraps=("clamp",),
                         clamp_alpha=alpha, clamp_beta=beta)
    config = ExperimentConfig(game="scheduling", instance="random:scheduling",
                              mechanism=spec, seed=seed,
                              instance_params={"n_max": 8, "m_max": 4})
    # the same instances (substream 0 of each trial) played with exact counts
    perfect = replace(config, mechanism=MechanismSpec(mech="perfect"), compute_opt=False)
    violations = 0
    perfect_violations = 0
    for trial in range(trials):
        result, _, instance, _ = run_trial(config, trial)
        t_star_sum = float(instance.t_star.sum())
        n = instance.n
        bound = alpha ** (2 * n + 1) * (beta + 2 * n * beta + t_star_sum) + beta
        if result.alg_metric > bound + 1e-9:
            violations += 1
        if run_trial(perfect, trial)[0].alg_metric > t_star_sum + 1e-9:
            perfect_violations += 1
        if result.opt + 1e-9 < optimal.scheduling_lower_bound(instance):
            violations += 1
    passed = violations == 0 and perfect_violations == 0
    return (passed,
            {"violations": violations, "perfect_violations": perfect_violations},
            [f"clamped-counter bound violations: {violations}/{trials}",
             f"perfect-counter sum-t* violations: {perfect_violations}/{trials}"])


@_scenario("lemma:scheduling-undom",
           "with exact load displays, parking the free job on the expensive machine "
           "is undominated and forces makespan >= 1 where the optimum is 0")
def _scheduling_undom(seed: int = 0):
    instance = inst_lib.scheduling_2x2()
    config = ExperimentConfig(game="scheduling", instance=instance,
                              mechanism=MechanismSpec(mech="perfect"),
                              strategy="scripted:pessimistic-scheduler", seed=seed)
    result, trace, _, _ = run_trial(config, 0)
    passed = trace.metrics["makespan"] >= 1.0 and result.opt == 0.0
    return (passed,
            {"makespan": trace.metrics["makespan"], "opt": result.opt},
            [f"makespan {trace.metrics['makespan']} vs optimum {result.opt}"])


@_scenario("lemma:cost-sharing-perfect",
           "with exact counters, greedy cost sharing pays n against an optimum of 1+eps")
def _costshare_perfect(seed: int = 0, n: int = 10, eps: float = 0.1):
    instance = inst_lib.costshare_public_private(n, eps)
    config = ExperimentConfig(game="costshare", instance=instance,
                              mechanism=MechanismSpec(mech="perfect"), seed=seed)
    result, _, _, _ = run_trial(config, 0)
    passed = result.alg_metric == float(n) and result.opt == 1.0 + eps
    return (passed,
            {"total_cost": result.alg_metric, "opt": result.opt,
             "ratio": result.ratio},
            [f"total cost {result.alg_metric} vs optimum {result.opt} "
             f"(ratio {result.ratio:.2f})"])


@_scenario("prop:private-beats-perfect",
           "on the public/private cost-sharing instance, a noisy warm-up followed by "
           "tree-based counters beats exact counters: mean cost about 1+eps+c/2 "
           "instead of n")
def _private_beats_perfect(seed: int = 0, n: int = 200, trials: int = 200,
                           eps: float = 0.1, q: float = 1.0):
    instance = inst_lib.costshare_public_private(n, eps)
    m = n + 1
    gamma = 1.0 / n
    # choose the tree budget so its declared error constant equals q, then
    # c = 8(p^2 + 2pq) with p = 1 (the warm-up length from the construction)
    eps_tree = 4.0 * max(1.0, math.log2(n)) * math.log2(n * m / gamma) / q
    c = int(round(8.0 * (1.0 + 2.0 * q)))
    costs = []
    for trial in range(trials):
        rng = RandomSource(seed, 0).substream(trial)
        inner = TreeSum(n, m, eps_tree, rng.substream(1), gamma=gamma)
        mech = UniformWarmupCounter(inner, c, rng.substream(2))
        trace = play_cost_sharing(instance, mech, Greedy())
        costs.append(trace.metrics["total_cost"])
    mean_cost = float(np.mean(costs))
    passed = mean_cost < 25.0 and mean_cost < float(n)
    return (passed,
            {"mean_cost": mean_cost, "max_cost": float(np.max(costs)),
             "c": c, "q": q, "eps_tree": eps_tree, "perfect_cost": float(n)},
            [f"mean total cost {mean_cost:.2f} over {trials} trials "
             f"(perfect counters always pay {n})",
             f"warm-up length c = {c} from tree error constant q = {q}"])


@_scenario("lemma:future-lb",
           "future-dependent greedy on the step instance earns 1 against 2w - eps")
def _future_lb(seed: int = 0, w: float = 5.0, eps: float = 0.1):
    instance = inst_lib.future_step(w, eps)
    config = ExperimentConfig(game="future", instance=instance,
                              mechanism=MechanismSpec(mech="perfect"), seed=seed)
    result, _, _, _ = run_trial(config, 0)
    passed = result.sw == 1.0 and abs(result.opt - (2 * w - eps)) <= 1e-9
    return (passed,
            {"sw": result.sw, "opt": result.opt, "ratio": result.ratio},
            [f"welfare {result.sw} vs optimum {result.opt:.4f}"])


@_scenario("lemma:marketundom",
           "market sharing admits undominated play with welfare 1 while the all-private "
           "assignment is worth about n(log n - 1)")
def _marketundom(seed: int = 0, n: int = 16, eps: float = 0.01):
    instance = inst_lib.market_log_loss(n, eps)
    config = ExperimentConfig(game="future", instance=instance,
                              mechanism=MechanismSpec(mech="perfect"),
                              strategy="scripted:private-set-beliefs", seed=seed,
                              compute_opt=False)
    result, _, _, _ = run_trial(config, 0)
    benchmark = inst_lib.market_undom_benchmark(n, eps)
    exact = inst_lib.market_undom_exact_opt(n, eps)
    passed = result.sw == 1.0 and exact >= benchmark
    return (passed,
            {"sw": result.sw, "benchmark": benchmark, "exact_opt": exact},
            [f"welfare {result.sw} vs all-private benchmark {benchmark:.3f} "
             f"(exact optimum {exact:.3f})"])


@_scenario("cor:marketlog",
           "greedy market sharing with clamped (alpha, beta) counters keeps welfare "
           "above (OPT - 2 beta alpha n) / (4 (1 + alpha^2) log2 n)")
def _marketlog(seed: int = 0, trials: int = 50, alpha: float = 1.5, beta: float = 2.0):
    spec = MechanismSpec(mech="treesum", eps=3.0, wraps=("clamp",),
                         clamp_alpha=alpha, clamp_beta=beta)
    config = ExperimentConfig(game="market", instance="random:open-market",
                              mechanism=spec, seed=seed, compute_opt=False)
    violations = 0
    worst_margin = math.inf
    for trial in range(trials):
        result, _, instance, _ = run_trial(config, trial)
        # every market is open to every player and n >= m, so the exact
        # optimum is the total of all market values (a market's first value)
        opt = math.fsum(c.values[0] for c in instance.curves)
        bound = (opt - 2.0 * beta * alpha * instance.n) \
            / (4.0 * (1.0 + alpha ** 2) * math.log2(max(instance.n, 2)))
        margin = result.sw - bound
        worst_margin = min(worst_margin, margin)
        if margin < -1e-9:
            violations += 1
    passed = violations == 0
    return (passed,
            {"violations": violations, "worst_margin": worst_margin},
            [f"violations: {violations}/{trials}; worst margin {worst_margin:.2f}"])


__all__ = [
    "MechanismSpec",
    "ExperimentConfig",
    "TrialResult",
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
