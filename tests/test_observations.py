"""Scenario-style tests for two side observations about greedy play, plus the
discretized continuous-investment mode.

* Refined estimates: greedy against any estimate deterministically sandwiched
  between an underestimator's display and the true count keeps the same
  welfare bound as the underestimator itself.
* Expectation-only accuracy does not: a counter that is exact in expectation
  but occasionally undercounts by sqrt(n) drags welfare far below what exact
  counters achieve on the jackpot instance.
"""

import math

import numpy as np
import pytest

from contcount.counters import (
    AccuracyEnvelope,
    CounterMechanism,
    PerfectCounter,
    PrivacyBudget,
    TreeSum,
    UnderestimatorWrapper,
    ZeroFailureWrapper,
)
from contcount.errors import ParameterError
from contcount.games import (
    COST_SHARING,
    CUT,
    FUTURE_DEPENDENT,
    SCHEDULING,
    ResourceSharingInstance,
    ValueCurve,
    RESOURCE,
    play,
    verify_trace,
)
from contcount import instances
from contcount.noise import RandomSource
from contcount.optimal import opt_resource_sharing
from contcount.strategies import Greedy


class RefinedCounter(CounterMechanism):
    """Displays the midpoint between an underestimator's release and the true
    count: a deterministically more accurate estimate z in [display, true]."""

    def __init__(self, inner):
        super().__init__(inner.horizon, inner.dim, inner.budget, inner.envelope,
                         inner.update_bound)
        self.inner = inner

    def _step(self, a):
        y = self.inner.update(a)
        assert np.all(y <= self._true + 1e-12), "the inner release overestimates"
        return 0.5 * (np.maximum(y, 0.0) + self._true)


def make_underestimator(n, m, rng):
    inner = TreeSum(n, m, 2.0, rng)
    clamped = ZeroFailureWrapper(inner, AccuracyEnvelope(1.5, 3.0, 0.0))
    return UnderestimatorWrapper(clamped)


def test_refined_estimates_keep_the_welfare_bound():
    alpha, beta = 1.5 ** 2, 2.0 * 3.0 / 1.5
    for trial in range(50):
        rng = RandomSource(trial, 41)
        inst = instances.random_resource_sharing(rng.substream(0), n_max=30, m_max=6)
        refined = RefinedCounter(make_underestimator(inst.n, inst.m, rng.substream(1)))
        trace = play(RESOURCE, inst, refined, Greedy())
        opt = opt_resource_sharing(inst).value
        assert trace.social_welfare >= opt / (8.0 * alpha * beta) - 1e-9


class OccasionalUndercount(CounterMechanism):
    """Exact with probability 1 - 1/sqrt(n), undercounts by sqrt(n) otherwise
    (independently per coordinate per step). Accurate in expectation only."""

    def __init__(self, n, m, rng):
        root = math.sqrt(n)
        super().__init__(n, m, PrivacyBudget(math.inf),
                         AccuracyEnvelope(1.0, root, 0.0))
        self.root = root
        self.rng = rng

    def _step(self, a):
        lie = self.rng.uniform(size=self.dim) < 1.0 / self.root
        return np.where(lie, np.maximum(self._true - self.root, 0.0), self._true)


def jackpot_instance(n):
    """sqrt(n) jackpot resources worth H once, plus a private fallback worth
    H - eps per player; every player may chase any jackpot."""
    root = int(math.isqrt(n))
    high, eps = 100.0, 1e-6
    jackpots = [ValueCurve([high] + [0.0] * (n - 1)) for _ in range(root)]
    privates = [ValueCurve([high - eps] * n) for _ in range(n)]
    action_sets = [list(range(root)) + [root + i] for i in range(n)]
    return ResourceSharingInstance(jackpots + privates, action_sets)


def test_expectation_accuracy_is_not_enough():
    n = 64
    inst = jackpot_instance(n)
    opt = opt_resource_sharing(inst).value
    perfect = play(RESOURCE, inst, PerfectCounter(n, inst.m), Greedy())
    assert opt / perfect.social_welfare <= 1.0 + 1e-9

    ratios = []
    for trial in range(20):
        mech = OccasionalUndercount(n, inst.m, RandomSource(trial, 42))
        trace = play(RESOURCE, inst, mech, Greedy())
        ratios.append(opt / trace.social_welfare)
    # phantom-vacancy displays lure players onto exhausted jackpots
    assert float(np.mean(ratios)) >= 2.0


# ---------------------------------------------------------------------------
# discretized continuous investments


def test_fractional_splits_one_matches_unit_demand():
    for trial in range(10):
        rng = RandomSource(trial, 43)
        inst = instances.random_resource_sharing(rng.substream(0), n_max=15, m_max=5)
        a = play(RESOURCE, inst, PerfectCounter(inst.n, inst.m), Greedy())
        b = play(RESOURCE, inst, PerfectCounter(inst.n, inst.m), Greedy(), splits=1)
        assert a.actions == b.actions
        assert a.social_welfare == b.social_welfare


def test_fractional_riemann_sum_oracle():
    # two flat resources: half the budget goes to each once values tie
    inst = ResourceSharingInstance(
        [ValueCurve([1.0, 1.0, 1.0, 1.0]), ValueCurve([1.0, 1.0, 1.0, 1.0])],
        [[0, 1]])
    trace = play(RESOURCE, inst, PerfectCounter(1, 2), Greedy(), splits=4)
    assert trace.social_welfare == 1.0
    verify_trace(trace)

    # decaying curve: the Riemann sum of v over [0, 1] in quarter steps
    inst2 = ResourceSharingInstance([ValueCurve([4.0, 2.0, 1.0])], [[0], [0]])
    trace2 = play(RESOURCE, inst2, PerfectCounter(2, 1), Greedy(), splits=4)
    # both players invest fully in the only resource; the curve is flat within
    # each unit interval, so each player earns v(own unit) exactly
    assert trace2.realized.tolist() == [4.0, 2.0]
    assert np.allclose(trace2.final_usage, [2.0])


class FixedDisplay(CounterMechanism):
    """Always displays a fixed vector (a stand-in for a noisy release)."""

    def __init__(self, n, m, shown):
        super().__init__(n, m, PrivacyBudget(math.inf),
                         AccuracyEnvelope(1.0, float(n), 0.0))
        self.shown = np.asarray(shown, dtype=float)
        self._current = self.shown.copy()

    def _step(self, a):
        return self.shown.copy()


def test_fractional_split_switches_resources_mid_turn():
    # a fractional displayed count makes the marginal value drop mid-turn:
    # the splitter parks half her budget on the jackpot, then moves to the
    # fallback, which a unit-demand player cannot do
    inst = ResourceSharingInstance(
        [ValueCurve([8.0, 0.0]), ValueCurve([1.0, 1.0])], [[0, 1]])
    frac = play(RESOURCE, inst, FixedDisplay(1, 2, [0.5, 0.0]), Greedy(), splits=2)
    assert np.allclose(frac.final_usage, [0.5, 0.5])
    assert frac.realized[0] == pytest.approx(0.5 * 8.0 + 0.5 * 1.0)
    assert frac.perceived[0] == pytest.approx(0.5 * 8.0 + 0.5 * 1.0)
    # the metric of fractional play is its welfare, not the value of the
    # action each player invested in most
    assert frac.metric == frac.social_welfare
    verify_trace(frac)
    unit = play(RESOURCE, inst, FixedDisplay(1, 2, [0.5, 0.0]), Greedy())
    assert unit.final_usage[0] == 1.0  # committed entirely to the jackpot


def test_fractional_validation():
    inst = instances.random_resource_sharing(RandomSource(0, 44), n_max=5, m_max=3)
    with pytest.raises(ParameterError):
        play(RESOURCE, inst, PerfectCounter(inst.n, inst.m), Greedy(), splits=0)


@pytest.mark.parametrize("rule", [FUTURE_DEPENDENT, CUT, SCHEDULING, COST_SHARING],
                         ids=lambda rule: rule.name)
def test_fractional_play_is_refused_outside_resource_sharing(rule):
    spec = "random:resource" if rule is FUTURE_DEPENDENT else f"random:{rule.name}"
    inst = instances.resolve_instance(rule, spec, RandomSource(0, 45))
    mech = PerfectCounter(inst.n, rule.dim(inst), rule.bound(inst))
    with pytest.raises(ParameterError, match="resource game only"):
        play(rule, inst, mech, Greedy(), splits=2)
    assert mech.t == 0
