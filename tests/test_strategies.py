import numpy as np
import pytest

from contcount.counters import AccuracyEnvelope, PerfectCounter
from contcount.errors import ParameterError, ValidationError
from contcount.games import (
    CUT,
    FUTURE_DEPENDENT,
    RESOURCE,
    SCHEDULING,
    CutInstance,
    ResourceSharingInstance,
    SchedulingInstance,
    ValueCurve,
    play,
)
from contcount import instances
from contcount.noise import RandomSource
from contcount.strategies import (
    BeliefGreedy,
    Greedy,
    belief_range,
    is_undominated,
    scripted,
    make_strategy,
)


CURVES = [ValueCurve([1.0, 0.5, 0.1]), ValueCurve([0.5, 0.5, 0.5])]


def greedy_pick(action_set, displayed, curves) -> int:
    """Greedy's resource-sharing pick for a lone player, as ``play`` asks for it."""
    inst = ResourceSharingInstance(curves, [list(action_set)])
    return Greedy().choose_action(RESOURCE, inst, 0, RESOURCE.actions(inst, 0), displayed)


def test_greedy_resource_pick():
    assert greedy_pick([0, 1], [0.0, 0.0], CURVES) == 0
    # resource 0 already crowded: v0(5) = 0.1 < v1(0) = 0.5
    assert greedy_pick([0, 1], [5.0, 0.0], CURVES) == 1
    # exact tie breaks to the lowest index
    tie = [ValueCurve([0.7, 0.7]), ValueCurve([0.7, 0.7])]
    assert greedy_pick([0, 1], [0.0, 0.0], tie) == 0
    assert greedy_pick([1, 0], [0.0, 0.0], tie) == 0


def test_greedy_argmax_invariant_under_increasing_transform():
    gen = np.random.default_rng(3)
    for _ in range(50):
        m = int(gen.integers(2, 6))
        vals = np.sort(gen.random(m * 4).reshape(m, 4), axis=1)[:, ::-1]
        curves = [ValueCurve(v) for v in vals]
        scaled = [ValueCurve(3.0 * v + 1.0) for v in vals]  # strictly increasing map
        displayed = 3.0 * gen.random(m)
        acts = sorted(gen.choice(m, size=int(gen.integers(1, m + 1)), replace=False).tolist())
        assert greedy_pick(acts, displayed, curves) == greedy_pick(acts, displayed, scaled)


def test_belief_range():
    env = AccuracyEnvelope(2.0, 3.0, 0.0)
    lo, hi = belief_range(4.0, env)
    assert lo == 0.5 and hi == 14.0
    lo, hi = belief_range(10.0, env)
    assert lo == 3.5 and hi == 26.0


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 3.0])
def test_belief_range_inverts_the_envelope(alpha, beta):
    # every display the envelope of x allows keeps x among its beliefs
    env = AccuracyEnvelope(alpha, beta, 0.0)
    for x in np.linspace(0.0, 20.0, 41):
        for y in np.linspace(float(env.lower(x)), float(env.upper(x)), 17):
            lo, hi = belief_range(y, env)
            assert lo - 1e-9 <= x <= hi + 1e-9, (x, y, lo, hi)


def test_undominated_against_a_display_the_true_count_can_show():
    # x = 10 may display y = 4 under (2, 1): its envelope is [4, 21]; at
    # x = 10 resource 1 is worth 0 < 0.5, so action 0 is not dominated
    env = AccuracyEnvelope(2.0, 1.0, 0.0)
    curves = [ValueCurve([0.5] * 12), ValueCurve([1.0] * 10 + [0.0] * 2)]
    assert env.lower(10.0) <= 4.0 <= env.upper(10.0)
    assert is_undominated(0, [0, 1], [0.0, 4.0], env, curves)


def test_is_undominated_perfect_counters_matches_greedy():
    env = AccuracyEnvelope(1.0, 0.0, 0.0)
    displayed = [0.0, 1.0]
    # v0(0) = 1.0 > v1(1) = 0.5: resource 0 undominated, resource 1 dominated
    assert is_undominated(0, [0, 1], displayed, env, CURVES)
    assert not is_undominated(1, [0, 1], displayed, env, CURVES)
    gen = np.random.default_rng(0)
    for _ in range(40):
        m = 3
        curves = [ValueCurve(np.sort(gen.random(4))[::-1]) for _ in range(m)]
        displayed = 2.0 * gen.random(m)
        best = greedy_pick([0, 1, 2], displayed, curves)
        assert is_undominated(best, [0, 1, 2], displayed, env, curves)


def test_is_undominated_wide_envelope_everything_undominated():
    env = AccuracyEnvelope(1.0, 100.0, 0.0)
    curves = [ValueCurve([1.0, 0.2]), ValueCurve([1.0, 0.3]), ValueCurve([1.0, 0.1])]
    for action in range(3):
        assert is_undominated(action, [0, 1, 2], [0.0, 0.0, 0.0], env, curves)


def test_is_undominated_fragile_resource_case():
    # a signal consistent with the fragile resource already being taken keeps
    # the flat fallback undominated for the second player
    inst = instances.fragile_first_mover(0.05)
    env = AccuracyEnvelope(1.0, 1.0, 0.0)
    assert is_undominated(1, [0, 1], [0.0, 0.0], env, inst.curves)


def test_is_undominated_requires_zero_failure():
    with pytest.raises(ParameterError):
        is_undominated(0, [0, 1], [0.0, 0.0], AccuracyEnvelope(1.0, 1.0, 0.1), CURVES)
    with pytest.raises(ValidationError):
        is_undominated(2, [0, 1], [0.0, 0.0], AccuracyEnvelope(1.0, 1.0, 0.0), CURVES)


def test_greedy_resource_play_is_always_undominated_with_perfect_counters():
    env = AccuracyEnvelope(1.0, 0.0, 0.0)
    for trial in range(10):
        rng = RandomSource(trial, 13)
        inst = instances.random_resource_sharing(rng, n_max=15, m_max=5)
        mech = PerfectCounter(inst.n, inst.m)
        trace = play(RESOURCE, inst, mech, Greedy())
        for i, action in enumerate(trace.actions):
            assert is_undominated(action, inst.action_sets[i], trace.displayed[i],
                                  env, inst.curves)


def test_scripted_registry():
    for name in ("fear-a-twin", "all-blue-cycle", "pessimistic-scheduler",
                 "private-set-beliefs"):
        assert make_strategy(f"scripted:{name}").name == name
    with pytest.raises(ParameterError, match="unknown scripted strategy 'not-a-script'"):
        make_strategy("scripted:not-a-script")


def test_scripted_fear_a_twin_play():
    inst = instances.twin_temptation(6, 50.0)
    from contcount.counters import EmptyCounter
    trace = play(RESOURCE, inst, EmptyCounter(6, 7), scripted("fear-a-twin"))
    assert trace.actions == [6] * 6
    assert trace.social_welfare == 6.0


def test_scripted_guard_rejects_mismatched_instance():
    inst = instances.illustrative_shared_vs_private(5, 0.01)
    with pytest.raises(ParameterError):
        play(RESOURCE, inst, PerfectCounter(5, inst.m), scripted("fear-a-twin"))
    sched = instances.scheduling_2x2()
    with pytest.raises(ParameterError, match="the cut game plays a CutInstance, not a "
                                             "SchedulingInstance"):
        play(CUT, sched, PerfectCounter(2, 4), scripted("all-blue-cycle"))


@pytest.mark.parametrize("script, rule, inst, message", [
    # m = n + 1, but players 0 to 3 cannot reach the shared last resource
    ("fear-a-twin", RESOURCE, instances.illustrative_shared_vs_private(5, 0.01),
     "fear-a-twin expects one resource per player plus a shared last resource in every"),
    ("fear-a-twin", FUTURE_DEPENDENT, instances.twin_temptation(3, 10.0),
     "script 'fear-a-twin' plays the resource game, not future"),
    ("fear-a-twin", RESOURCE, instances.fragile_first_mover(),
     "fear-a-twin expects one resource per player plus a shared last resource"),
    ("all-blue-cycle", CUT, CutInstance(3, [(0, 1), (1, 2), (0, 2)]),
     "even cycle with >= 4 nodes"),
    ("all-blue-cycle", CUT, CutInstance(4, [(0, 1), (1, 2), (2, 3)]),
     "exactly the cycle's edges"),
    ("pessimistic-scheduler", SCHEDULING, SchedulingInstance([[1.0, 0.0], [0.0, 1.0]]),
     "free first machine"),
    ("private-set-beliefs", FUTURE_DEPENDENT, instances.twin_temptation(3, 10.0),
     "shared market 0 plus one private market per player"),
])
def test_script_refuses_an_instance_of_another_shape(script, rule, inst, message):
    mech = PerfectCounter(inst.n, rule.dim(inst), rule.bound(inst))
    with pytest.raises(ParameterError, match=message):
        play(rule, inst, mech, scripted(script))
    assert mech.t == 0


def test_belief_greedy_offset():
    # optimistic offset -1 makes the crowded resource look one chooser emptier
    curves = [ValueCurve([1.0, 0.4]), ValueCurve([0.5, 0.5])]
    inst = ResourceSharingInstance(curves, [[0, 1]])
    plain = Greedy().choose_action(RESOURCE, inst, 0, [0, 1], [1.0, 0.0])
    optimistic = BeliefGreedy(-1.0).choose_action(RESOURCE, inst, 0, [0, 1], [1.0, 0.0])
    assert plain == 1
    assert optimistic == 0


def test_make_strategy():
    assert isinstance(make_strategy("greedy"), Greedy)
    assert make_strategy("scripted:fear-a-twin").name == "fear-a-twin"
    assert make_strategy("belief:-2").offset == -2.0
    with pytest.raises(ParameterError):
        make_strategy("noidea")
