import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from contcount.errors import SizeError
from contcount.games import (
    COST_SHARING,
    CUT,
    FUTURE_DEPENDENT,
    RESOURCE,
    SCHEDULING,
    CostSharingInstance,
    CutInstance,
    ResourceSharingInstance,
    ValueCurve,
    play,
)
from contcount import instances, optimal
from contcount.noise import RandomSource
from contcount.optimal import (
    opt_cost_sharing,
    opt_cut,
    opt_future_dependent,
    opt_resource_sharing,
    opt_scheduling,
    scheduling_lower_bound,
)


# independent brute-force oracles (enumeration spaces differ from the solvers')


def brute_resource(inst):
    best = -math.inf
    for assign in itertools.product(*inst.action_sets):
        best = max(best, RESOURCE.value(inst, assign))
    return best


def brute_scheduling(inst):
    best = math.inf
    for assign in itertools.product(range(inst.m), repeat=inst.n):
        loads = [0.0] * inst.m
        for k, q in enumerate(assign):
            loads[q] += float(inst.costs[k, q])
        best = min(best, max(loads))
    return best


def brute_cut(inst):
    best = 0.0
    adj = np.zeros((inst.n, inst.n), dtype=bool)
    for u, v in inst.edges:
        adj[u, v] = adj[v, u] = True
    for colors in itertools.product((0, 1), repeat=inst.n):
        c = np.array(colors)
        cut = int(np.count_nonzero(adj & (c[:, None] != c[None, :]))) // 2
        best = max(best, 2.0 * cut)
    return best


def brute_cost_sharing(inst):
    # enumerate player->set assignments rather than set families
    best = math.inf
    for assign in itertools.product(*inst.action_sets):
        best = min(best, COST_SHARING.value(inst, assign))
    return best


def brute_future(inst):
    best = -math.inf
    for assign in itertools.product(*inst.action_sets):
        best = max(best, FUTURE_DEPENDENT.value(inst, assign))
    return best


# ---------------------------------------------------------------------------


def test_resource_sharing_illustrative_exact_matching():
    inst = instances.illustrative_shared_vs_private(100, 0.01)
    result = opt_resource_sharing(inst)
    # exact matching puts one player on the public copy worth 1.0; the
    # all-private assignment the scenario reports as benchmark is worth 99
    assert result.value == pytest.approx(99.01, abs=1e-9)
    assert RESOURCE.value(inst, result.witness) == result.value
    benchmark = RESOURCE.value(inst, [i + 1 for i in range(100)])
    assert benchmark == 99.0
    assert result.value > benchmark


def test_resource_sharing_single_player():
    inst = ResourceSharingInstance(
        [ValueCurve([0.2]), ValueCurve([0.9])], [[0, 1]])
    result = opt_resource_sharing(inst)
    assert result.value == 0.9 and result.witness == [1]


def test_resource_sharing_matches_brute_force():
    for trial in range(30):
        rng = RandomSource(trial, 31)
        inst = instances.random_resource_sharing(rng, n_max=6, m_max=4)
        result = opt_resource_sharing(inst)
        assert result.value == pytest.approx(brute_resource(inst), abs=1e-12)
        assert RESOURCE.value(inst, result.witness) == result.value


# the dense assignment solver the matroid greedy replaced, as an oracle at
# sizes brute force cannot reach


def dense_assignment_resource(inst):
    """Max-weight assignment of players to n copies of every resource via
    scipy's linear_sum_assignment; forbidden cells weigh less than any
    all-allowed assignment, so the maximizer never takes one."""
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    n, m = inst.n, inst.m
    weights = np.empty((n, m * n))
    for r in range(m):
        for k in range(n):
            weights[:, r * n + k] = inst.curves[r].value_at(k)
    forbidden = -(1.0 + float(np.abs(weights).sum()))
    mask = np.full((n, m * n), True)
    for i, acts in enumerate(inst.action_sets):
        for r in acts:
            mask[i, r * n:(r + 1) * n] = False
    weights[mask] = forbidden
    rows, cols = linear_sum_assignment(weights, maximize=True)
    assert not mask[rows, cols].any()
    return RESOURCE.value(inst, (cols // n).tolist())


def first_fit_resource(inst):
    """Negative control: the copies in the solver's (-value, r, k) order, each
    given to the first free allowed player, never rerouting a placed one."""
    copies = sorted((-inst.curves[r].value_at(k), r, k)
                    for r in range(inst.m) for k in range(inst.n))
    where = [None] * inst.n
    for _, r, _ in copies:
        free = [i for i, acts in enumerate(inst.action_sets) if r in acts and where[i] is None]
        if free:
            where[free[0]] = r
    return RESOURCE.value(inst, where)


def check_against_dense(inst):
    result = opt_resource_sharing(inst)
    assert result.value == dense_assignment_resource(inst)
    assert len(result.witness) == inst.n
    assert all(r in acts for r, acts in zip(result.witness, inst.action_sets))
    assert RESOURCE.value(inst, result.witness) == result.value


def test_resource_budget_counts_candidate_copies(monkeypatch):
    # n = 939, m = 10: n*m*n = 8,817,210 dense cells, but only 5,181 copies
    inst = instances.random_resource_sharing(RandomSource(22, 3), n_max=1000, m_max=10)
    copies = sum(len(set(acts)) for acts in inst.action_sets)
    assert (inst.n, inst.m, copies) == (939, 10, 5181)
    check_against_dense(inst)
    monkeypatch.setattr(optimal, "MATCHING_COPY_BUDGET", copies)
    assert opt_resource_sharing(inst).method == "matching"
    monkeypatch.setattr(optimal, "MATCHING_COPY_BUDGET", copies - 1)
    with pytest.raises(SizeError):
        opt_resource_sharing(inst)


def test_resource_sharing_matches_dense_assignment():
    for trial in range(200):
        check_against_dense(instances.random_resource_sharing(
            RandomSource(trial, 37), n_max=200, m_max=10))
    for trial in range(100):
        check_against_dense(instances.random_market_sharing(RandomSource(trial, 38),
                                                            n_max=30, m_max=6))


def test_resource_sharing_long_augmenting_paths():
    # nested action sets: player i may use resources 0..i % m. Resource r pays
    # 2 - r/m to each of its first 2(r + 1) users, so the low resources go
    # first and take the lowest players of every class; the high resources
    # then reach a free player only by shifting several placed ones
    n, m = 120, 12
    curves = [ValueCurve([2.0 - r / m if k < 2 * (r + 1) else 0.0 for k in range(n)])
              for r in range(m)]
    check_against_dense(ResourceSharingInstance(
        curves, [list(range(i % m + 1)) for i in range(n)]))


def test_resource_sharing_reroutes_placed_players():
    # the first copy of resource 0 goes to player 0; resource 1 is open only
    # to player 0, who must move over so that player 1 takes resource 0
    inst = ResourceSharingInstance(
        [ValueCurve([1.0, 0.0]), ValueCurve([0.9])], [[0, 1], [0]])
    result = opt_resource_sharing(inst)
    assert result.value == 1.9 and result.witness == [1, 0]
    assert first_fit_resource(inst) == 1.0


def test_package_import_leaves_scipy_unloaded():
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    code = ("import sys, contcount, contcount.cli; "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_scheduling_exact_and_bounds():
    assert opt_scheduling(instances.scheduling_2x2()).value == 0.0
    unit = instances.SchedulingInstance(np.ones((3, 3)))
    assert opt_scheduling(unit).value == 1.0
    for trial in range(20):
        rng = RandomSource(trial, 32)
        inst = instances.random_scheduling(rng, n_max=6, m_max=3)
        result = opt_scheduling(inst)
        assert result.value == pytest.approx(brute_scheduling(inst), abs=1e-12)
        assert result.value >= scheduling_lower_bound(inst) - 1e-9
        assert SCHEDULING.value(inst, result.witness) == result.value
    with pytest.raises(SizeError):
        opt_scheduling(instances.SchedulingInstance(np.ones((30, 4))))


def test_cut_closed_forms_and_brute_force():
    cycle = instances.cut_cycle(20)
    result = opt_cut(cycle)
    assert result.value == 80.0 and result.method == "closed-form"
    assert CUT.value(cycle, result.witness) == result.value

    k33 = CutInstance(6, [(u, v) for u in range(3) for v in range(3, 6)])
    assert opt_cut(k33).value == 18.0

    for trial in range(15):
        rng = RandomSource(trial, 33)
        inst = instances.random_cut(rng, n_max=12, p=0.4)
        result = opt_cut(inst)
        assert result.value == brute_cut(inst)
        assert CUT.value(inst, result.witness) == result.value
    with pytest.raises(SizeError):
        opt_cut(CutInstance(40, [(i, (i + 1) % 40) for i in range(40)] + [(0, 2)]))


def test_cost_sharing_exact():
    inst = instances.costshare_public_private(10, 0.1)
    result = opt_cost_sharing(inst)
    assert result.value == 1.1
    private_only = CostSharingInstance(np.array([1.0, 2.0, 3.0]), [[0], [1], [2]])
    assert opt_cost_sharing(private_only).value == 6.0
    for trial in range(20):
        rng = RandomSource(trial, 34)
        inst = instances.random_cost_sharing(rng, n_max=6, m_max=6)
        result = opt_cost_sharing(inst)
        assert result.value == pytest.approx(brute_cost_sharing(inst), abs=1e-12)
        used, assignment = result.witness
        assert COST_SHARING.value(inst, assignment) == result.value
        assert sorted(set(assignment)) == used


def test_cost_sharing_duplicate_action_entries_match_brute_force():
    # a set listed twice counts once: player 0's "0 3 0" must offer sets 0
    # and 3, so the optimum is sets 0 and 2 at cost 2, not sets 2 and 3 at 6
    inst = CostSharingInstance.parse("2 4\n1 9 1 5\n0 3 0\n2\n")
    assert opt_cost_sharing(inst).value == brute_cost_sharing(inst) == 2.0
    gen = np.random.default_rng(36)
    for _ in range(100):
        n, m = int(gen.integers(1, 5)), int(gen.integers(1, 6))
        sets = [gen.integers(0, m, size=int(gen.integers(2, 5))).tolist() for _ in range(n)]
        inst = CostSharingInstance(0.5 + 4.5 * gen.random(m), sets)
        result = opt_cost_sharing(inst)
        assert result.value == pytest.approx(brute_cost_sharing(inst), abs=1e-12)
        assert COST_SHARING.value(inst, result.witness[1]) == result.value


def test_future_dependent_exact():
    inst = instances.future_step(5.0, 0.1)
    result = opt_future_dependent(inst)
    assert result.value == pytest.approx(9.9, abs=1e-12)
    assert FUTURE_DEPENDENT.value(inst, result.witness) == result.value

    n, c = 5, 2.0
    single = ResourceSharingInstance([instances.market_curve(c, n)], [[0]] * n)
    assert opt_future_dependent(single).value == pytest.approx(c, abs=1e-12)

    for trial in range(20):
        rng = RandomSource(trial, 35)
        inst = instances.random_resource_sharing(rng, n_max=5, m_max=3)
        result = opt_future_dependent(inst)
        assert result.value == pytest.approx(brute_future(inst), abs=1e-12)


def test_market_undom_closed_form_matches_brute_force():
    for n in (4, 5):
        inst = instances.market_log_loss(n, 0.01)
        assert instances.market_undom_exact_opt(n, 0.01) == pytest.approx(
            brute_future(inst), abs=1e-12)


def test_opt_upper_bounds_any_play():
    from contcount.counters import TreeSum
    from contcount.strategies import Greedy

    for trial in range(10):
        rng = RandomSource(trial, 36)
        inst = instances.random_resource_sharing(rng, n_max=10, m_max=4)
        mech = TreeSum(inst.n, inst.m, 0.5, rng.substream(1))
        trace = play(RESOURCE, inst, mech, Greedy())
        assert opt_resource_sharing(inst).value >= trace.social_welfare - 1e-9


# the per-assignment loops the chunked solvers replaced, evaluators inlined as
# the same float additions in the same order, so values and witnesses must match


def loop_scheduling(inst):
    costs = inst.costs.tolist()
    best, best_assign = math.inf, None
    for assign in itertools.product(range(inst.m), repeat=inst.n):
        loads = [0.0] * inst.m
        for row, q in zip(costs, assign):
            loads[q] += row[q]
        span = max(loads)
        if span < best:
            best, best_assign = span, list(assign)
    return best, best_assign, "brute-force"


def loop_cut(inst):
    best, best_colors = -1.0, None
    for bits in range(2 ** max(inst.n - 1, 0)):
        colors = [0] + [(bits >> i) & 1 for i in range(inst.n - 1)]
        sw = 2.0 * sum(1 for u, v in inst.edges if colors[u] != colors[v])
        if sw > best:
            best, best_colors = sw, colors
    return best, best_colors, "brute-force"


def as_tuple(result):
    return result.value, result.witness, result.method


def greedy_scheduling(inst):
    """Each job in turn to the first machine that keeps the makespan lowest."""
    loads, assign = [0.0] * inst.m, []
    for row in inst.costs.tolist():
        q = min(range(inst.m), key=lambda q: max(max(loads), loads[q] + row[q]))
        loads[q] += row[q]
        assign.append(q)
    return max(loads), assign


def peak_mib(solve, inst):
    tracemalloc.start()
    try:
        solve(inst)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_chunked_scheduling_matches_loop():
    for trial in range(100):
        inst = instances.random_scheduling(RandomSource(trial, 37), n_max=8, m_max=4)
        assert as_tuple(opt_scheduling(inst)) == loop_scheduling(inst)
    # 3^13 assignments span 27 chunks; on identical machines every optimum has
    # a machine-permuted twin in another chunk
    sizes = np.random.default_rng(37).integers(1, 4, (13, 1))
    inst = instances.SchedulingInstance(np.repeat(sizes, 3, axis=1))
    assert as_tuple(opt_scheduling(inst)) == loop_scheduling(inst)
    # zero-cost jobs and all-equal costs across 4 and 2 chunks: optima tie
    # within and across chunks, and only the first may be kept
    gen = np.random.default_rng(39)
    zeros = gen.integers(0, 3, (9, 4)) * (gen.random((9, 4)) < 0.5)
    for costs in (zeros, np.zeros((9, 4)), np.ones((17, 2)), np.full((9, 4), 0.1)):
        inst = instances.SchedulingInstance(costs)
        assert as_tuple(opt_scheduling(inst)) == loop_scheduling(inst)
    # greedy reaches the optimum from the second chunk; the first optimum
    # lies in the first
    inst = instances.SchedulingInstance(np.random.default_rng(25).integers(1, 4, (17, 2)))
    value, witness, method = loop_scheduling(inst)
    greedy_value, greedy_assign = greedy_scheduling(inst)
    assert greedy_value == value and (greedy_assign[0], witness[0]) == (1, 0)
    assert as_tuple(opt_scheduling(inst)) == (value, witness, method)


def test_scheduling_solve_stays_small():
    # 4^10 assignments over 16 chunks of 4^8 rows each
    inst = instances.SchedulingInstance(np.random.default_rng(40).uniform(size=(10, 4)))
    assert peak_mib(opt_scheduling, inst) < 0.5


def test_chunked_cut_matches_loop():
    solved = 0
    for trial in range(100):
        inst = instances.random_cut(RandomSource(trial, 38), n_max=16, p=0.35)
        result = opt_cut(inst)
        if result.method == "brute-force":
            solved += 1
            assert as_tuple(result) == loop_cut(inst)
    assert solved >= 50
    # 2^19 colorings span 8 chunks; the triangle (0, 1, 19) makes it non-bipartite
    gen = np.random.default_rng(38)
    edges = [(u, v) for u in range(19) for v in range(u + 1, 19) if gen.random() < 0.15]
    inst = CutInstance(20, sorted(set(edges) | {(0, 1), (0, 19), (1, 19)}))
    result = opt_cut(inst)
    assert result.method == "brute-force"
    assert as_tuple(result) == loop_cut(inst)
    assert peak_mib(opt_cut, inst) < 4.0
    # a dense 19-node graph: the high nodes 17 and 18 share an edge and each
    # has one to node 0
    edges = [(u, v) for u in range(19) for v in range(u + 1, 19) if gen.random() < 0.5]
    inst = CutInstance(19, sorted(set(edges) | {(0, 17), (0, 18), (17, 18)}))
    assert as_tuple(opt_cut(inst)) == loop_cut(inst)


def test_brute_force_budget_is_inclusive(monkeypatch):
    sched = instances.SchedulingInstance(np.arange(12.0).reshape(4, 3))
    monkeypatch.setattr(optimal, "BRUTE_FORCE_BUDGET", 81)
    assert opt_scheduling(sched).method == "brute-force"
    monkeypatch.setattr(optimal, "BRUTE_FORCE_BUDGET", 80)
    with pytest.raises(SizeError):
        opt_scheduling(sched)
    triangle = CutInstance(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    monkeypatch.setattr(optimal, "BRUTE_FORCE_BUDGET", 16)
    assert opt_cut(triangle).method == "brute-force"
    monkeypatch.setattr(optimal, "BRUTE_FORCE_BUDGET", 15)
    with pytest.raises(SizeError):
        opt_cut(triangle)
