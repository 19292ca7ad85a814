import itertools
import math
import warnings

import numpy as np
import pytest

from contcount.counters import AccuracyEnvelope, PerfectCounter, EmptyCounter, TreeSum, \
    ZeroFailureWrapper
from contcount.errors import ParameterError, ValidationError
from contcount.games import (
    CostSharingInstance,
    CutInstance,
    ResourceSharingInstance,
    SchedulingInstance,
    COST_SHARING,
    CUT,
    FUTURE_DEPENDENT,
    RESOURCE,
    SCHEDULING,
    ValueCurve,
    play,
    verify_trace,
)
from contcount import instances
from contcount.harness import MechanismSpec
from contcount.noise import RandomSource
from contcount.strategies import Greedy, scripted


# ---------------------------------------------------------------------------
# curves and instances


def test_value_curve_validation_and_lookup():
    curve = ValueCurve([3.0, 2.0, 2.0, 0.5])
    assert curve.value_at(0) == 3.0
    assert curve.value_at(2.9) == 2.0          # floors
    assert curve.value_at(-4.0) == 3.0         # clamps below
    assert curve.value_at(99) == 0.5           # extends by last value
    with pytest.raises(ParameterError):
        ValueCurve([1.0, 2.0])
    with pytest.raises(ParameterError):
        ValueCurve([1.0, -0.5])
    with pytest.raises(ParameterError):
        ValueCurve([])
    source = np.array([3.0, 2.0, 1.0])
    curve = ValueCurve(source)
    with pytest.raises(ValueError):
        curve.values[0] = 0.0  # read-only, so the lookup table cannot go stale
    source[0] = 9.0  # the caller's array stays writable and is not the table
    assert curve.value_at(0) == 3.0


def old_value_at(curve, k):
    """The lookup as first written: clamp to 0, floor, cap at the last entry."""
    idx = int(math.floor(max(0.0, float(k))))
    if idx >= curve.values.size:
        idx = curve.values.size - 1
    return float(curve.values[idx])


@pytest.mark.parametrize("k", [
    0, 1, 3, 4, 7, 0.0, 0.99, 1.0, 2.5, 3.999, 4.0, -0.0, -0.5, -3, -1e300, 1e300,
    np.float64(2.7), np.float64(-1.5), np.float64(1e300), np.int64(2), np.int64(-2),
    np.int64(10), True, math.nan, np.float64(math.nan), -math.inf, np.float64(-math.inf)])
def test_value_at_matches_the_old_formula(k):
    curve = ValueCurve([3.0, 2.0, 2.0, 0.5])
    got, expected = curve.value_at(k), old_value_at(curve, k)
    assert type(got) is float and got == expected


@pytest.mark.parametrize("k", [math.inf, np.float64(math.inf)])
def test_value_at_of_plus_inf_raises_as_before(k):
    curve = ValueCurve([3.0, 2.0])
    with pytest.raises(OverflowError) as new:
        curve.value_at(k)
    with pytest.raises(OverflowError) as old:
        old_value_at(curve, k)
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize("values, message", [
    ([2.0, math.nan], "entries must be finite"),
    ([math.nan], "entries must be finite"),
    ([math.inf, math.inf], "entries must be finite"),
    ([1.0, math.inf, math.inf], "entries must be finite"),
    ([math.inf, 1.0], "entries must be finite"),
    ([1.0, math.inf], "entries must be finite"),
    ([1.0, -math.inf], "entries must be finite"),
    ([1.0, -0.5], "entries must be nonnegative"),
    ([1.0, 1.0 + 2e-12], "must be nonincreasing"),
    ([[2.0, 1.0]], "needs at least one entry"),
    ([], "needs at least one entry"),
])
def test_value_curve_rejections_keep_their_messages(values, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. inf - inf in a naive rise test
        with pytest.raises(ParameterError, match=message):
            ValueCurve(values)


@pytest.mark.parametrize("values", [
    [0.0, 1e-12], [1.0, 1.0 + 4e-13, 1.0], [-0.0], [1.0, -0.0], [0.0, -0.0, 0.0]])
def test_value_curve_accepts_tiny_rises_and_negative_zero(values):
    curve = ValueCurve(values)
    assert curve.values.tolist() == values
    assert [curve.value_at(k) for k in range(len(values))] == values


def test_instance_validation():
    with pytest.raises(ParameterError):
        ResourceSharingInstance([ValueCurve([1.0])], [[]])
    with pytest.raises(ParameterError):
        ResourceSharingInstance([ValueCurve([1.0])], [[3]])
    with pytest.raises(ParameterError):
        CutInstance(3, [(0, 0)])
    with pytest.raises(ParameterError):
        CutInstance(3, [(0, 1), (1, 0)])
    with pytest.raises(ParameterError):
        SchedulingInstance(np.array([[-1.0]]))
    with pytest.raises(ParameterError):
        CostSharingInstance(np.array([0.0]), [[0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("build", [
    lambda bad: ValueCurve([bad, bad]),
    lambda bad: SchedulingInstance(np.array([[1.0, bad]])),
    lambda bad: CostSharingInstance(np.array([1.0, bad]), [[0]]),
], ids=["value-curve", "scheduling", "cost-sharing"])
def test_non_finite_numbers_rejected(build, bad):
    with pytest.raises(ParameterError):
        build(bad)


# ---------------------------------------------------------------------------
# resource sharing


def test_single_player_takes_best_initial_value():
    inst = ResourceSharingInstance(
        [ValueCurve([0.3]), ValueCurve([0.9]), ValueCurve([0.5])], [[0, 1, 2]])
    trace = play(RESOURCE, inst, PerfectCounter(1, 3), Greedy())
    assert trace.actions == [1]
    assert trace.social_welfare == 0.9


def test_illustrative_instance_small():
    n = 10
    inst = instances.illustrative_shared_vs_private(n, 0.01)
    trace = play(RESOURCE, inst, EmptyCounter(n, inst.m), Greedy())
    assert trace.actions == [0] * n
    assert trace.social_welfare == pytest.approx(instances.harmonic_number(n), abs=1e-12)
    verify_trace(trace)


def test_illustrative_instance_perfect_counters_within_factor_four():
    n = 20
    inst = instances.illustrative_shared_vs_private(n, 0.01)
    trace = play(RESOURCE, inst, PerfectCounter(n, inst.m), Greedy())
    from contcount.optimal import opt_resource_sharing
    opt = opt_resource_sharing(inst).value
    assert trace.social_welfare >= opt / 4.0 - 1e-9
    # exact counters actually recover the optimum here: one player rides the
    # public resource at value 1, the rest take their privates
    assert trace.social_welfare == opt


def test_dimension_mismatch_rejected():
    inst = instances.illustrative_shared_vs_private(5, 0.01)
    with pytest.raises(ValidationError):
        play(RESOURCE, inst, PerfectCounter(5, 2), Greedy())


def _used_counter():
    mech = PerfectCounter(5, 5)
    mech.update(np.zeros(5))
    return mech


@pytest.mark.parametrize("make_mech, message", [
    (lambda: PerfectCounter(3, 5), "counter horizon 3 < 4 players"),
    (lambda: PerfectCounter(4, 5, 0.5),
     "counter update bound 0.5 cannot carry updates of l1 norm 1.0"),
    (_used_counter, "counter has already consumed updates"),
], ids=["horizon", "update-bound", "used"])
def test_play_refuses_a_counter_that_cannot_carry_the_game(make_mech, message):
    inst = instances.twin_temptation(4, 10.0)
    with pytest.raises(ValidationError) as err:
        play(RESOURCE, inst, make_mech(), Greedy())
    assert str(err.value) == message


def test_play_determinism():
    rng_inst = RandomSource(3, 1)
    inst = instances.random_resource_sharing(rng_inst, n_max=20, m_max=5)
    spec = MechanismSpec(mech="treesum", eps=1.0)
    t1 = play(RESOURCE, inst, spec.build(inst.n, inst.m, RandomSource(9, 4)), Greedy())
    t2 = play(RESOURCE, inst, spec.build(inst.n, inst.m, RandomSource(9, 4)), Greedy())
    assert t1.actions == t2.actions
    assert t1.social_welfare == t2.social_welfare
    assert np.array_equal(t1.displayed, t2.displayed)


def test_bookkeeping_on_fuzzed_plays():
    gen = np.random.default_rng(12)
    for trial in range(15):
        rng = RandomSource(trial, 8)
        inst = instances.random_resource_sharing(rng, n_max=25, m_max=6)
        mech = TreeSum(inst.n, inst.m, 1.0, rng.substream(1))
        trace = play(RESOURCE, inst, mech, Greedy())
        verify_trace(trace)
        assert trace.social_welfare == math.fsum(trace.realized)
        assert int(trace.final_usage.sum()) == inst.n


# ---------------------------------------------------------------------------
# cut games


def brute_force_max_cut_sw(inst):
    best = 0
    for colors in itertools.product((0, 1), repeat=inst.n):
        cut = sum(1 for u, v in inst.edges if colors[u] != colors[v])
        best = max(best, 2 * cut)
    return best


def test_cut_triangle_greedy():
    inst = CutInstance(3, [(0, 1), (1, 2), (0, 2)])
    mech = PerfectCounter(3, 6, update_bound=2.0)
    trace = play(CUT, inst, mech, Greedy())
    assert trace.social_welfare == 4.0
    assert trace.social_welfare == brute_force_max_cut_sw(inst)
    verify_trace(trace)


def test_cut_edgeless():
    inst = CutInstance(3, [])
    trace = play(CUT, inst, PerfectCounter(3, 6), Greedy())
    assert trace.social_welfare == 0.0 == brute_force_max_cut_sw(inst)


def test_cut_cycle_scripted():
    inst = instances.cut_cycle(4)
    mech = PerfectCounter(8, 16, update_bound=2.0)
    trace = play(CUT, inst, mech, scripted("all-blue-cycle"))
    assert trace.actions == [1] * 7 + [0]
    assert trace.social_welfare == 4.0


def test_cut_greedy_private_bound_fuzz():
    alpha, beta = 2.0, 2.0
    for trial in range(20):
        rng = RandomSource(trial, 21)
        inst = instances.random_cut(rng, n_max=18, p=0.35)
        inner = TreeSum(inst.n, 2 * inst.n, 3.0, rng.substream(1),
                        update_bound=float(max(inst.max_degree, 1)))
        mech = ZeroFailureWrapper(inner, AccuracyEnvelope(alpha, beta, 0.0))
        trace = play(CUT, inst, mech, Greedy())
        bound = 2 * len(inst.edges) / (2 * alpha ** 2) - 2 * beta * inst.n / alpha
        assert trace.social_welfare >= bound - 1e-9


# ---------------------------------------------------------------------------
# scheduling


def test_scheduling_2x2_greedy_and_scripted():
    inst = instances.scheduling_2x2()
    trace = play(SCHEDULING, inst, PerfectCounter(2, 2, update_bound=1.0), Greedy())
    assert trace.metric == 0.0
    scripted_trace = play(SCHEDULING, inst, PerfectCounter(2, 2, update_bound=1.0),
                          scripted("pessimistic-scheduler"))
    assert scripted_trace.metric >= 1.0


def test_unit_demand_play_stores_a_zero_gain_as_plus_zero():
    # greedy's first job costs 0 on machine 0, a utility of -(0.0 + 0.0) = -0.0;
    # the play stores it as a one-term fsum would, +0.0
    trace = play(SCHEDULING, instances.scheduling_2x2(), PerfectCounter(2, 2), Greedy())
    assert trace.actions == [0, 1]
    assert trace.perceived[0] == 0.0 and math.copysign(1.0, trace.perceived[0]) == 1.0
    assert math.copysign(1.0, trace.perceived[1]) == 1.0


def test_scheduling_greedy_below_tstar_sum():
    for trial in range(25):
        rng = RandomSource(trial, 5)
        inst = instances.random_scheduling(rng, n_max=6, m_max=3)
        bound = float(inst.costs.max())
        trace = play(SCHEDULING, inst, PerfectCounter(inst.n, inst.m, bound), Greedy())
        assert trace.metric <= float(inst.t_star.sum()) + 1e-9
        verify_trace(trace)


# ---------------------------------------------------------------------------
# cost sharing


def test_cost_sharing_single_set():
    inst = CostSharingInstance(np.array([2.5]), [[0], [0], [0]])
    trace = play(COST_SHARING, inst, PerfectCounter(3, 1), Greedy())
    assert trace.metric == 2.5
    assert trace.social_welfare == pytest.approx(2.5, abs=1e-12)


def test_cost_sharing_public_private():
    inst = instances.costshare_public_private(10, 0.1)
    trace = play(COST_SHARING, inst, PerfectCounter(10, 11), Greedy())
    assert trace.metric == 10.0
    verify_trace(trace)


# ---------------------------------------------------------------------------
# future-dependent and market sharing


def test_future_step_instance():
    inst = instances.future_step(5.0, 0.1)
    trace = play(FUTURE_DEPENDENT, inst, PerfectCounter(2, 2), Greedy())
    assert trace.actions == [0, 0]
    assert trace.social_welfare == 1.0
    verify_trace(trace)


def test_single_market_forced():
    n, c = 8, 3.0
    inst = ResourceSharingInstance([instances.market_curve(c, n)], [[0]] * n)
    trace = play(FUTURE_DEPENDENT, inst, PerfectCounter(n, 1), Greedy())
    assert trace.realized == pytest.approx([c / n] * n)
    assert trace.social_welfare == pytest.approx(c, abs=1e-12)


def test_market_undom_scripted():
    inst = instances.market_log_loss(16, 0.01)
    trace = play(FUTURE_DEPENDENT, inst, PerfectCounter(16, 17), scripted("private-set-beliefs"))
    assert trace.social_welfare == 1.0


def test_future_dependent_shallow_perceived_bound():
    # for (w, n)-shallow curves, perceived welfare of greedy with exact
    # counters stays within a factor w of realized welfare; w here is the
    # brute-force minimal shallowness factor over all resources
    def min_w(curve, l):
        return max(
            math.fsum(curve.value_at(t) for t in range(x + 1)) / (x * curve.value_at(x))
            for x in range(1, l + 1))

    for trial in range(20):
        rng = RandomSource(trial, 22)
        inst = instances.random_resource_sharing(rng, n_max=20, m_max=5)
        w = max(min_w(c, inst.n - 1) if inst.n > 1 else 1.0 for c in inst.curves)
        trace = play(FUTURE_DEPENDENT, inst, PerfectCounter(inst.n, inst.m), Greedy())
        assert trace.perceived_welfare <= w * trace.social_welfare + 1e-9


# ---------------------------------------------------------------------------
# instance files


RS_TEXT = """
# toy instance
2 2
1.0 0.5
0.8 0.8
0 1
1
"""


def test_parse_resource_sharing_roundtrip():
    inst = instances.parse_resource_sharing(RS_TEXT)
    assert inst.n == 2 and inst.m == 2
    assert inst.action_sets == [[0, 1], [1]]
    assert inst.curves[0].value_at(1) == 0.5
    with pytest.raises(ValidationError):
        instances.parse_resource_sharing("2 2\n1.0 0.5\n")


def test_parse_other_games():
    cut = instances.parse_cut("3\n0 1\n1 2\n")
    assert cut.n == 3 and len(cut.edges) == 2
    sched = instances.parse_scheduling("2 2\n0 1\n1 0\n")
    assert sched.costs[0, 1] == 1.0
    cost = instances.parse_cost_sharing("2 2\n1.5 2.5\n0\n0 1\n")
    assert cost.allowed == [[0], [0, 1]]
    with pytest.raises(ValidationError):
        instances.parse_scheduling("2 2\n0 1\n")


@pytest.mark.parametrize("parse,text,kind", [
    (instances.parse_resource_sharing, "2 1\n1.0 0.5\n0\n0\n0\n", "resource-sharing"),
    (instances.parse_scheduling, "2 2\n0 1\n1 0\n1 1\n", "scheduling"),
    (instances.parse_cost_sharing, "2 2\n1.5 2.5\n0\n0 1\n1\n", "cost-sharing")],
    ids=["resource", "scheduling", "costshare"])
def test_parse_rejects_lines_beyond_the_header(parse, text, kind):
    # one more player (or job) than the header declares is an error, not dropped
    with pytest.raises(ValidationError, match=f"malformed {kind} instance"):
        parse(text)


def test_parse_stream():
    arr = instances.parse_stream("# comment\n0.5 0.5\n0 1\n", 2)
    assert arr.shape == (2, 2)
    with pytest.raises(ValidationError):
        instances.parse_stream("0.5\n", 2)


def test_resolve_named_instances():
    inst = instances.resolve_instance(RESOURCE, "paper:noinfo", n=4, high=10.0)
    assert inst.n == 4 and inst.m == 5
    with pytest.raises(ParameterError):
        instances.resolve_instance(RESOURCE, "paper:nope")
    with pytest.raises(ParameterError):
        instances.resolve_instance(CUT, "paper:sched2x2")


def test_package_exports_play_and_the_rules_not_the_aliases():
    import contcount
    from contcount import games

    for name in ("play", "RESOURCE", "FUTURE_DEPENDENT", "CUT", "SCHEDULING", "COST_SHARING"):
        assert getattr(contcount, name) is getattr(games, name)
    aliases = [name for name in vars(games) if name.startswith("play_")]
    assert len(aliases) == 6
    assert not set(aliases) & (set(vars(contcount)) | set(games.__all__))
