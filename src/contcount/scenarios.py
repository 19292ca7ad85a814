"""The named reproduction scenarios, registered with the harness on import.

A scenario is data: a builder of its parameters (not the seed, which reproduce
sets on the built config) returns an ExperimentConfig plus the Checks it
claims. reproduce runs every trial through run_trial, evaluates each check's
value against its bound, and reports the value, bound and slack at the trial
with the least slack, with the number of violating trials; it PASSes when no
check has one.
A control, a dict of ``params`` and ExperimentConfig fields (``config``)
to change, must make its check ``fails``, and no other, report violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import instances as inst_lib
from . import optimal
from .counters import CounterMechanism, PerfectCounter, UniformWarmupCounter, treesum_error_bound
from .games import FUTURE_DEPENDENT, RESOURCE, SCHEDULING, play
from .harness import Check, ExperimentConfig, MechanismSpec, _ratio, _scenario
from .noise import RandomSource
from .strategies import Greedy, is_undominated


def _field(name: str):
    """The check value ``result.<name>`` of one trial."""
    return lambda result, *_: getattr(result, name)


_SW, _OPT, _RATIO, _METRIC = map(_field, ("sw", "opt", "ratio", "alg_metric"))


def _undominated(result, trace, inst, mech) -> bool:
    """Whether every pick is undominated at the player's displayed counts
    under the mechanism's declared envelope."""
    return all(is_undominated(a, inst.action_sets[i], trace.displayed[i], mech.envelope,
                              inst.curves) for i, a in enumerate(trace.actions))


@_scenario("thm:greedy4",
           "with perfect counters, greedy is 4-competitive for sequential resource sharing",
           dict(fails="cr",                                   # blind greedy ignores crowding
                config={"mechanism": MechanismSpec(mech="empty")}))
def _greedy4(trials: int = 200):
    config = ExperimentConfig(game="resource", instance="random:resource", trials=trials,
                              instance_params={"n_max": 50, "m_max": 10})
    return config, (Check("cr", _RATIO, "<=", 4.0, 1e-9),)


@_scenario("sec1.1:illustrative",
           "blind greedy on the shared-vs-private instance earns only the harmonic sum "
           "H_n against an all-private benchmark of n(1-eps)")
def _illustrative(n: int = 100, eps: float = 0.01):
    instance = inst_lib.illustrative_shared_vs_private(n, eps)
    config = ExperimentConfig(game="resource", instance=instance,
                              mechanism=MechanismSpec(mech="empty"))
    h_n = inst_lib.harmonic_number(n)
    benchmark = RESOURCE.value(instance, [i + 1 for i in range(n)])
    return config, (
        Check("sw", _SW, "==", h_n, 1e-9),
        Check("benchmark", lambda *_: benchmark, "==", n * (1.0 - eps)),
        Check("exact_opt", _OPT, ">=", benchmark),
        Check("cr_benchmark", lambda r, *_: benchmark / r.sw, "==", benchmark / h_n, 1e-9))


@_scenario("thm:noinfo",
           "with empty counters, fearing a twin makes the shared resource undominated "
           "and welfare collapses from n*H to n",
           dict(fails="undominated", params={"n": 1}),        # no twin to fear
           dict(fails="undominated",                          # exact counts show the jackpots
                config={"mechanism": MechanismSpec(mech="perfect")}),
           dict(fails="sw", config={"strategy": "greedy"}))   # greedy takes every jackpot
def _noinfo(n: int = 10, high: float = 100.0):
    config = ExperimentConfig(game="resource", instance=inst_lib.twin_temptation(n, high),
                              mechanism=MechanismSpec(mech="empty"),
                              strategy="scripted:fear-a-twin")
    return config, (Check("sw", _SW, "==", float(n)), Check("opt", _OPT, "==", n * high),
                    Check("undominated", _undominated, "==", 1.0))


@_scenario("thm:noinfospecial",
           "even with slowly decaying values, empty counters admit undominated play "
           "with welfare H_n against an optimum of n^2",
           dict(fails="undominated",                          # exact counts show no twin
                config={"mechanism": MechanismSpec(mech="perfect")}),
           dict(fails="sw", config={"strategy": "greedy"}))   # all pile onto private resource 0
def _noinfospecial(n: int = 25):
    config = ExperimentConfig(game="resource", instance=inst_lib.slow_decay_temptation(n),
                              mechanism=MechanismSpec(mech="empty"),
                              strategy="scripted:fear-a-twin")
    return config, (Check("sw", _SW, "==", inst_lib.harmonic_number(n), 1e-12),
                    Check("opt", _OPT, "==", float(n) ** 2),
                    Check("undominated", _undominated, "==", 1.0))


@_scenario("thm:lb-undom",
           "under any private signal consistent with the first player having taken the "
           "fragile resource, avoiding it stays undominated for the second player",
           dict(fails="undominated", params={"beta": 0.5}),   # a shown 0 rules out a count of 1
           dict(fails="sw_spite", config={"strategy": "greedy"}))  # takes the fragile one
def _lb_undom(rho: float = 0.05, beta: float = 1.0):
    # under beta >= 1 the shown 0 on the fragile resource is consistent with
    # player 0 having taken it, as the offset-1 belief assumes
    spec = MechanismSpec(mech="empty", wraps=("clamp",), clamp_alpha=1.0, clamp_beta=beta)
    config = ExperimentConfig(game="resource", instance=inst_lib.fragile_first_mover(rho),
                              mechanism=spec, strategy="belief:1")
    return config, (Check("undominated", _undominated, "==", 1.0),
                    Check("sw_spite", _SW, "==", 2 * rho, 1e-12),
                    Check("opt", _OPT, "==", 1 + rho, 1e-12))


@_scenario("lemma:perceived",
           "greedy against an (alpha, beta) underestimator earns at least a "
           "1/(2 alpha beta) fraction of its perceived welfare",
           dict(fails="psw_over_sw",                          # a (1, 0.2) underestimator:
                config={"mechanism": MechanismSpec(           # no play meets 2ab = 0.4
                    mech="treesum", eps=2.0, wraps=("clamp", "under"),
                    clamp_alpha=1.0, clamp_beta=0.1)}))
def _perceived(trials: int = 500):
    spec = MechanismSpec(mech="treesum", eps=2.0, wraps=("clamp", "under"),
                         clamp_alpha=1.5, clamp_beta=3.0)
    config = ExperimentConfig(game="resource", instance="random:resource", mechanism=spec,
                              trials=trials, compute_opt=False,
                              instance_params={"n_max": 40, "m_max": 8})
    return config, (Check("psw_over_sw", lambda r, *_: _ratio("max", r.sw, r.psw), "<=",
                          lambda r, t, i, mech: 2.0 * mech.envelope.alpha
                          * mech.envelope.beta, 1e-9),)


@_scenario("thm:greedy-private",
           "greedy against a monotone (alpha, beta) underestimator counter is "
           "8*alpha*beta-competitive for resource sharing")
def _greedy_private(trials: int = 200):
    spec = MechanismSpec(mech="treesum", eps=2.0, wraps=("clamp", "under", "mono"),
                         clamp_alpha=1.5, clamp_beta=3.0)
    config = ExperimentConfig(game="resource", instance="random:resource", mechanism=spec,
                              trials=trials, instance_params={"n_max": 40, "m_max": 8})
    return config, (Check("cr", _RATIO, "<=", lambda r, t, i, mech: 8.0 * mech.envelope.alpha
                          * mech.envelope.beta, 1e-9),
                    Check("envelope_pass_rate", _field("envelope_ok"), "==", 1.0, mean=True))


@_scenario("thm:polylog",
           "the flag/tree counter behind an underestimator wrapper keeps greedy's "
           "competitive ratio within 8*alpha*beta of optimal")
def _polylog(trials: int = 50):
    spec = MechanismSpec(mech="ftsum", eps=1.0, alpha=2.0, gamma=0.1,
                         wraps=("clamp", "under", "mono"))
    config = ExperimentConfig(game="resource", instance="random:resource", mechanism=spec,
                              trials=trials, instance_params={"n_max": 40, "m_max": 6})
    # the final envelope after clamp -> under -> mono on the declared FTSum
    # one, whose analytic beta is loose
    return config, (Check("cr", _RATIO, "<=", lambda r, t, i, mech: 8.0 * mech.envelope.alpha
                          * (mech.envelope.beta + 1e-12), 1e-9),)


@_scenario("lemma:cut-cycle",
           "on the 2n-cycle, all-blue-until-forced is undominated play with welfare 4 "
           "against an optimum of 4n",
           dict(fails="sw", config={"strategy": "greedy"}))   # greedy cuts every edge
def _cut_cycle(n: int = 20):
    config = ExperimentConfig(game="cut", instance=inst_lib.cut_cycle(n),
                              strategy="scripted:all-blue-cycle")
    return config, (Check("sw", _SW, "==", 4.0), Check("opt", _OPT, "==", 4.0 * n))


@_scenario("thm:cut-greedy-perfect",
           "greedy coloring with exact neighbor counts is 2-competitive",
           dict(fails="cr", params={"trials": 1},             # blind greedy paints all red
                config={"mechanism": MechanismSpec(mech="empty")}))
def _cut_perfect(trials: int = 100):
    config = ExperimentConfig(game="cut", instance="random:cut", trials=trials,
                              instance_params={"n_max": 16, "p": 0.35})
    return config, (Check("cr", _RATIO, "<=", 2.0, 1e-9),)


@_scenario("thm:cut-private",
           "greedy coloring with clamped (alpha, beta) counters keeps welfare above "
           "2|E|/(2 alpha^2) - 2 beta n / alpha",
           dict(fails="sw", params={"alpha": 1.0, "beta": 0.0},  # blind greedy paints all red
                config={"mechanism": MechanismSpec(mech="empty")}))
def _cut_private(trials: int = 100, alpha: float = 2.0, beta: float = 2.0):
    spec = MechanismSpec(mech="treesum", eps=3.0, wraps=("clamp",),
                         clamp_alpha=alpha, clamp_beta=beta)
    config = ExperimentConfig(game="cut", instance="random:cut", mechanism=spec,
                              trials=trials, compute_opt=False,
                              instance_params={"n_max": 30, "p": 0.3})
    return config, (Check("sw", _SW, ">=", lambda r, t, inst, m: (2.0 * len(inst.edges))
                          / (2.0 * alpha ** 2) - 2.0 * beta * inst.n / alpha, 1e-9),)


@_scenario("thm:scheduling-greedy",
           "greedy scheduling with clamped (alpha, beta) counters keeps the makespan "
           "below alpha^(2n+1)(beta + 2n beta + sum t*) + beta; with perfect counters "
           "it is below sum t*",
           dict(fails="makespan", params={"alpha": 1.0, "beta": 0.0},  # no clamp, judged at (1, 0)
                config={"mechanism": MechanismSpec(mech="treesum", eps=3.0)}))
def _scheduling(trials: int = 100, alpha: float = 1.5, beta: float = 2.0):
    spec = MechanismSpec(mech="treesum", eps=3.0, wraps=("clamp",),
                         clamp_alpha=alpha, clamp_beta=beta)
    config = ExperimentConfig(game="scheduling", instance="random:scheduling", mechanism=spec,
                              trials=trials, instance_params={"n_max": 8, "m_max": 4})

    def bound(result, trace, inst, mech):
        t_star_sum = float(inst.t_star.sum())
        return alpha ** (2 * inst.n + 1) * (beta + 2 * inst.n * beta + t_star_sum) + beta

    def perfect_makespan(result, trace, inst, mech):
        # the same instance played with exact counts
        counter = PerfectCounter(inst.n, SCHEDULING.dim(inst), SCHEDULING.bound(inst))
        return play(SCHEDULING, inst, counter, Greedy()).metric

    return config, (
        Check("makespan", _METRIC, "<=", bound, 1e-9),
        Check("perfect_makespan", perfect_makespan, "<=",
              lambda r, t, inst, m: float(inst.t_star.sum()), 1e-9),
        Check("opt", _OPT, ">=", lambda r, t, inst, m: optimal.scheduling_lower_bound(inst),
              1e-9))


@_scenario("lemma:scheduling-undom",
           "with exact load displays, parking the free job on the expensive machine "
           "is undominated and forces makespan >= 1 where the optimum is 0",
           dict(fails="makespan", config={"strategy": "greedy"}))  # greedy parks it for free
def _scheduling_undom():
    config = ExperimentConfig(game="scheduling", instance=inst_lib.scheduling_2x2(),
                              strategy="scripted:pessimistic-scheduler")
    return config, (Check("makespan", _METRIC, ">=", 1.0), Check("opt", _OPT, "==", 0.0))


@_scenario("lemma:cost-sharing-perfect",
           "with exact counters, greedy cost sharing pays n against an optimum of 1+eps",
           dict(fails="total_cost", params={"eps": -0.5}))    # shared set undercuts a private one
def _costshare_perfect(n: int = 10, eps: float = 0.1):
    config = ExperimentConfig(game="costshare", instance=inst_lib.costshare_public_private(n, eps))
    return config, (Check("total_cost", _METRIC, "==", float(n)),
                    Check("opt", _OPT, "==", 1.0 + eps))


@dataclass(frozen=True)
class _WarmupSpec(MechanismSpec):
    """The spec's mechanism behind a UniformWarmupCounter of length ``warmup``,
    which draws from substream 2 of the mechanism's stream."""

    warmup: int = 0

    def build(self, n: int, m: int, rng: RandomSource,
              update_bound: float = 1.0) -> CounterMechanism:
        inner = super().build(n, m, rng, update_bound)
        return UniformWarmupCounter(inner, self.warmup, rng.substream(2))


@_scenario("prop:private-beats-perfect",
           "on the public/private cost-sharing instance, a noisy warm-up followed by "
           "tree-based counters beats exact counters: mean cost about 1+eps+c/2 "
           "instead of n",
           dict(fails="mean_cost",                            # a warm-up, then no information
                config={"mechanism": _WarmupSpec(mech="empty", warmup=24)}))
def _private_beats_perfect(n: int = 200, trials: int = 200, eps: float = 0.1, q: float = 1.0):
    gamma = 1.0 / n
    # choose the tree budget so its declared error constant equals q, then
    # c = 8(p^2 + 2pq) with p = 1 (the warm-up length from the construction)
    eps_tree = treesum_error_bound(n, n + 1, 1.0, gamma) / q
    c = int(round(8.0 * (1.0 + 2.0 * q)))
    config = ExperimentConfig(
        game="costshare", instance=inst_lib.costshare_public_private(n, eps),
        mechanism=_WarmupSpec(mech="treesum", eps=eps_tree, gamma=gamma, warmup=c),
        trials=trials, compute_opt=False)
    return config, (Check("mean_cost", _METRIC, "<", 25.0, mean=True),
                    Check("mean_cost_vs_perfect", _METRIC, "<", float(n), mean=True))


@_scenario("lemma:future-lb",
           "future-dependent greedy on the step instance earns 1 against 2w - eps",
           dict(fails="sw", config={"strategy": "belief:1"}))  # a believed rival avoids the trap
def _future_lb(w: float = 5.0, eps: float = 0.1):
    config = ExperimentConfig(game="future", instance=inst_lib.future_step(w, eps))
    return config, (Check("sw", _SW, "==", 1.0), Check("opt", _OPT, "==", 2 * w - eps, 1e-9))


@_scenario("lemma:marketundom",
           "market sharing admits undominated play with welfare 1 while the all-private "
           "assignment is worth about n(log n - 1)",
           dict(fails="own_over_shared", params={"eps": 0.0}),  # own market ties shared
           dict(fails="sw", config={"strategy": "greedy"}))   # greedy serves most own markets
def _marketundom(n: int = 16, eps: float = 0.01):
    instance = inst_lib.market_log_loss(n, eps)
    config = ExperimentConfig(game="future", instance=instance,
                              strategy="scripted:private-set-beliefs", compute_opt=False)
    exact = inst_lib.market_undom_exact_opt(n, eps)
    benchmark = FUTURE_DEPENDENT.value(instance, [i + 1 for i in range(n)])

    def own_over_shared(result, trace, inst, mech):
        # player i's belief: the i players before her took market 0, and all
        # n - i players from her on rush onto her own market i + 1
        c_shared = inst.curves[0].values[0]
        return max((inst.curves[i + 1].values[0] / (inst.n - i)) / (c_shared / (i + 1))
                   for i in range(inst.n))

    return config, (Check("sw", _SW, "==", 1.0),
                    Check("exact_opt", lambda *_: exact, ">=", benchmark),
                    Check("own_over_shared", own_over_shared, "<", 1.0))


@_scenario("cor:marketlog",
           "greedy market sharing with clamped (alpha, beta) counters keeps welfare "
           "above (OPT - 2 beta alpha n) / (4 (1 + alpha^2) log2 n)")
def _marketlog(trials: int = 50, alpha: float = 1.5, beta: float = 2.0):
    spec = MechanismSpec(mech="treesum", eps=3.0, wraps=("clamp",),
                         clamp_alpha=alpha, clamp_beta=beta)
    config = ExperimentConfig(game="future", instance="random:open-market",
                              mechanism=spec, trials=trials, compute_opt=False)

    def bound(result, trace, inst, mech):
        # every market is open to every player and n >= m, so the exact
        # optimum is the total of all market values (a market's first value)
        opt = math.fsum(c.values[0] for c in inst.curves)
        return (opt - 2.0 * beta * alpha * inst.n) \
            / (4.0 * (1.0 + alpha ** 2) * math.log2(max(inst.n, 2)))

    return config, (Check("sw", _SW, ">=", bound, 1e-9),)

