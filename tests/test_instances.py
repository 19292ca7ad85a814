"""Random instance generators: the block-drawn action sets, and the draws
that stay bit-identical to the per-element reference loops below."""

import math

import numpy as np
import pytest

from contcount import instances
from contcount.errors import ParameterError
from contcount.games import RESOURCE, ResourceSharingInstance, ValueCurve
from contcount.noise import RandomSource


# ---------------------------------------------------------------------------
# reference loops: the generators as they drew one element per call


def _loop_curve(rng, horizon):
    kind = int(rng.integers(0, 3))
    v0 = 0.5 + 1.5 * rng.uniform()
    if kind == 0:
        p = 0.5 + 1.5 * rng.uniform()
        vals = [v0 / (k + 1) ** p for k in range(horizon)]
    elif kind == 1:
        q = 0.5 + 0.45 * rng.uniform()
        vals = [v0 * q ** k for k in range(horizon)]
    else:
        step = int(rng.integers(1, max(2, horizon)))
        vals = [v0 if k < step else v0 * 0.25 for k in range(horizon)]
    return ValueCurve(vals)


# Each random generator draws its action sets last, so everything it draws
# before them stays what these loops draw: n, m, curves and set costs.
def _loop_resource(rng, n_max=50, m_max=10):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    return n, [_loop_curve(rng, n).values for _ in range(m)]


def _loop_market(rng, n_max=6, m_max=4, value_lo=1.0, value_hi=4.0):
    n = int(rng.integers(4, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    return n, [instances.market_curve(value_lo + (value_hi - value_lo) * rng.uniform(), n).values
               for _ in range(m)]


def _loop_costshare(rng, n_max=8, m_max=8):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    return n, [0.5 + 4.5 * rng.generator.random(m)]


def _loop_cut(rng, n_max=16, p=0.3):
    n = int(rng.integers(3, n_max + 1))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.uniform() < p]
    return n, edges or [(0, 1)]


def _loop_open_market(rng):
    n = int(rng.integers(10, 31))
    m = int(rng.integers(2, 7))
    values = [20.0 * n + 20.0 * n * rng.uniform() for _ in range(m)]
    return n, [instances.market_curve(c, n).values for c in values]


def _same_bits(a, b):
    return len(a) == len(b) and all(np.asarray(x).tobytes() == np.asarray(y).tobytes()
                                    for x, y in zip(a, b))


@pytest.mark.parametrize("n, m", [(1, 1), (1, 7), (5, 1), (40, 2), (200, 10)])
def test_random_subsets_are_sorted_distinct_nonempty_and_in_range(n, m):
    for seed in range(20):
        subsets = instances._random_subsets(RandomSource(seed, 9), n, m)
        assert len(subsets) == n
        for s in subsets:
            assert s and all(type(r) is int for r in s)
            assert s == sorted(set(s))
            assert 0 <= s[0] and s[-1] < m


def test_random_subset_sizes_and_memberships_are_uniform():
    n, m = 20_000, 5
    subsets = instances._random_subsets(RandomSource(2024, 1), n, m)
    sizes = np.bincount([len(s) for s in subsets], minlength=m + 1)[1:] / n
    sigma = math.sqrt(0.2 * 0.8 / n)
    assert np.all(np.abs(sizes - 0.2) < 4 * sigma)
    # index r is in a k-subset with probability k/m: 3/5 over uniform k
    rate = np.bincount([r for s in subsets for r in s], minlength=m) / n
    sigma = math.sqrt(0.6 * 0.4 / n)
    assert np.all(np.abs(rate - 0.6) < 4 * sigma)


def _curve_values(inst):
    return [c.values for c in inst.curves]


@pytest.mark.parametrize("name, loop, drawn", [
    ("resource", _loop_resource, _curve_values),
    ("market", _loop_market, _curve_values),
    ("costshare", _loop_costshare, lambda inst: [inst.set_costs]),
])
def test_only_action_sets_moved(name, loop, drawn):
    make = instances.RANDOM_GENERATORS[name]
    for seed in range(50):
        inst = make(RandomSource(seed, 3))
        n, arrays = loop(RandomSource(seed, 3))
        assert inst.n == n
        assert _same_bits(drawn(inst), arrays)


def test_random_cut_matches_pair_loop():
    for seed in range(200):
        inst = instances.random_cut(RandomSource(seed, 4))
        n, edges = _loop_cut(RandomSource(seed, 4))
        assert inst.n_nodes == n
        assert inst.edges == edges
    # p = 0 keeps no pair and falls back to the single edge
    assert instances.random_cut(RandomSource(0, 4), p=0.0).edges == [(0, 1)]


def test_random_open_market_matches_value_loop():
    for seed in range(50):
        inst = instances.random_open_market(RandomSource(seed, 5))
        n, curves = _loop_open_market(RandomSource(seed, 5))
        assert _same_bits(_curve_values(inst), curves)
        assert inst.action_sets == [list(range(len(curves)))] * n


def test_instance_objects_and_files_take_no_parameters(tmp_path):
    inst = instances.twin_temptation(4, 10.0)
    assert instances.resolve_instance(RESOURCE, inst) is inst
    path = tmp_path / "inst.txt"
    path.write_text("2 2\n1.0 0.5\n0.8 0.8\n0 1\n0 1\n")
    for spec in (inst, str(path)):
        with pytest.raises(ParameterError, match="apply only to paper: and random:"):
            instances.resolve_instance(RESOURCE, spec, n=3)


def test_future_generator_draws_small_resource_instances():
    make = instances.RANDOM_GENERATORS["future"]
    for seed in range(20):
        got = make(RandomSource(seed, 6))
        assert isinstance(got, ResourceSharingInstance)
        want = instances.random_resource_sharing(RandomSource(seed, 6), 5, 3)
        assert got.action_sets == want.action_sets
        assert _same_bits(_curve_values(got), _curve_values(want))
        assert 2 <= got.n <= 5


@pytest.mark.parametrize("name, params, message", [
    ("resource", {"n_max": 1}, "n_max must be finite and >= 2, got 1"),
    ("resource", {"m_max": 1}, "m_max must be finite and >= 2, got 1"),
    ("resource", {"n_max": math.nan}, "n_max must be finite and >= 2, got nan"),
    ("resource", {"m_max": math.inf}, "m_max must be finite and >= 2, got inf"),
    ("future", {"n_max": 1}, "n_max must be finite and >= 2, got 1"),
    ("market", {"n_max": 3}, "n_max must be finite and >= 4, got 3"),
    ("market", {"m_max": 0}, "m_max must be finite and >= 2, got 0"),
    ("cut", {"n_max": 2}, "n_max must be finite and >= 3, got 2"),
    ("cut", {"p": math.nan}, r"p must lie in \[0, 1\], got nan"),
    ("cut", {"p": -1.0}, r"p must lie in \[0, 1\], got -1.0"),
    ("cut", {"p": 2.0}, r"p must lie in \[0, 1\], got 2.0"),
    ("scheduling", {"n_max": 1}, "n_max must be finite and >= 2, got 1"),
    ("scheduling", {"m_max": 1}, "m_max must be finite and >= 2, got 1"),
    ("costshare", {"n_max": -5}, "n_max must be finite and >= 2, got -5"),
    ("costshare", {"m_max": 1}, "m_max must be finite and >= 2, got 1"),
])
def test_random_generator_names_a_bad_parameter(name, params, message):
    with pytest.raises(ParameterError, match=message):
        instances.RANDOM_GENERATORS[name](RandomSource(0, 7), **params)


@pytest.mark.parametrize("name, params", [
    ("resource", {"n_max": 2, "m_max": 2}), ("market", {"n_max": 4, "m_max": 2}),
    ("cut", {"n_max": 3, "p": 0.0}), ("cut", {"n_max": 3, "p": 1.0}),
    ("scheduling", {"n_max": 2, "m_max": 2}), ("costshare", {"n_max": 2, "m_max": 2})])
def test_random_generator_takes_its_smallest_parameters(name, params):
    inst = instances.RANDOM_GENERATORS[name](RandomSource(0, 7), **params)
    assert inst.n == params["n_max"]
    if name == "cut":
        assert len(inst.edges) == (3 if params["p"] else 1)
