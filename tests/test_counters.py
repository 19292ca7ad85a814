import logging
import math
import tracemalloc

import numpy as np
import pytest

from contcount.counters import (
    _L1_TOL,
    _NARROW,
    _NOISE_BLOCK,
    C_TREE,
    AccuracyEnvelope,
    EmptyCounter,
    FTSum,
    PerfectCounter,
    PrivacyBudget,
    TreeSum,
    envelope_check,
    ftsum_flag_count,
    ftsum_phase_one_bound,
    tree_levels,
    treesum_error_bound,
    validate_update,
)
from contcount.errors import ParameterError, StateError, ValidationError
from contcount.noise import RandomSource, laplace


def random_simplex_stream(gen, n, m):
    """Fuzzed stream of simplex updates (entries >= 0, l1 norm <= 1)."""
    raw = gen.random((n, m))
    scale = gen.random(n) / np.maximum(raw.sum(axis=1), 1e-12)
    return raw * scale[:, None]


# ---------------------------------------------------------------------------
# types and validation


def test_privacy_budget_validation():
    PrivacyBudget(1.0, 0.0)
    PrivacyBudget(math.inf)
    with pytest.raises(ParameterError):
        PrivacyBudget(0.0)
    with pytest.raises(ParameterError):
        PrivacyBudget(1.0, 1.0)


def test_envelope_validation_and_bounds():
    env = AccuracyEnvelope(2.0, 3.0, 0.1)
    assert env.lower(10.0) == 2.0
    assert env.upper(10.0) == 23.0
    assert envelope_check([10.0], [5.0], env)[0]
    assert not envelope_check([10.0], [24.0], env)[0]
    with pytest.raises(ParameterError):
        AccuracyEnvelope(0.5, 0.0)
    with pytest.raises(ParameterError):
        AccuracyEnvelope(1.0, -1.0)


def test_update_validation():
    validate_update([0.5, 0.5], 2)
    validate_update([0.2, 0.3], 2)
    with pytest.raises(ValidationError):
        validate_update([0.5, -0.1], 2)
    with pytest.raises(ValidationError):
        validate_update([0.7, 0.7], 2)
    with pytest.raises(ValidationError):
        validate_update([1.0], 2)
    # generalized bound for load-style updates
    validate_update([5.0, 0.0], 2, bound=5.0)
    with pytest.raises(ValidationError):
        validate_update([5.1, 0.0], 2, bound=5.0)
    validate_update([1.0, 1.0, 1.0], 3, bound=3.0)
    for bad in ([math.nan, 0.0, 0.0], [0.0, 0.0, math.nan], [math.inf, 0.0, 0.0],
                [0.0, -math.inf, 0.0], [0.5, -1e-300, 0.0], [1.0, 1.0, 1.0 + 2e-9]):
        with pytest.raises(ValidationError):
            validate_update(bad, 3, bound=3.0)


# both accept paths: Python floats up to _NARROW entries, argmin and dot beyond
VALIDATION_WIDTHS = (*range(1, 9), _NARROW - 1, _NARROW, _NARROW + 1, 32, 60, 201)


def test_update_validation_accepts_exactly_the_valid_updates():
    # each accept path agrees with the definition on random arrays with sums
    # on both sides of the bound, salted with -0.0, NaN, +-inf and -1e-300,
    # NaN also beside a smaller entry; sums within 1e-12 of the tolerance
    # edge are left out, as the order of summation may decide them
    def accepts(arr, bound):
        try:
            validate_update(arr, len(arr), bound)
        except ValidationError:
            return False
        return True

    gen = np.random.default_rng(17)
    specials = (-0.0, math.nan, math.inf, -math.inf, -1e-300)
    cases = [([-1.0, math.nan], 1.0), ([math.nan, -1.0], 1.0), ([0.1, math.nan, 0.0], 1.0),
             ([-0.0, 0.5], 1.0), ([-0.0, -0.0], 1.0)]
    for m in VALIDATION_WIDTHS:
        for _ in range(400):
            bound = float(gen.choice([1.0, 3.0, 5.0]))
            arr = gen.random(m)
            arr *= (0.5 + gen.random()) * bound / arr.sum()
            if gen.random() < 0.2:
                arr -= 0.05 * gen.random(m)
            for _ in range(int(gen.integers(0, 3))):
                arr[gen.integers(m)] = specials[gen.integers(len(specials))]
            cases.append((arr.tolist(), bound))
    checked = set()
    for entries, bound in cases:
        arr = np.array(entries)
        with np.errstate(invalid="ignore"):  # inf + -inf
            total = arr.sum()
        if abs(total - (bound + _L1_TOL)) < 1e-12:
            continue
        expected = bool(np.all(arr >= 0) and total <= bound + _L1_TOL)
        assert accepts(arr, bound) == expected, (entries, bound)
        checked.add((len(entries), expected))
    assert checked == {(m, ok) for m in (1, 2, 3, *VALIDATION_WIDTHS) for ok in (False, True)}


@pytest.mark.parametrize("m", [1, 2, _NARROW, _NARROW + 1, 32])
def test_update_validation_exact_edge_on_each_path(m):
    for bound in (1.0, 3.0, 5.0):
        edge = bound + _L1_TOL
        pad = [0.0] * (m - 1)
        validate_update([edge] + pad, m, bound)
        validate_update(pad + [edge], m, bound)
        if m > 1:
            validate_update([edge / 2, edge / 2] + pad[1:], m, bound)
        with pytest.raises(ValidationError):
            validate_update([np.nextafter(edge, math.inf)] + pad, m, bound)


@pytest.mark.parametrize("entries", [
    [0.5, -0.1, 0.0], [1.5, 0.0, 0.0], [0.2, math.nan, 0.0], [math.inf, 0.0, 0.0],
    [0.6, 0.6, 0.0]])
def test_update_validation_messages_match_across_paths(entries):
    # the same faulty entries, padded with zeros past the narrow width, fail
    # with the same message on either path
    def message(arr):
        with pytest.raises(ValidationError) as info:
            validate_update(arr, len(arr))
        return str(info.value)

    assert message(entries) == message(entries + [0.0] * (_NARROW + 2))


@pytest.mark.parametrize("m", [2, _NARROW + 5])
@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_update_validation_refuses_a_bad_bound_by_name(m, bound):
    # a NaN bound fails every update; the others fail the ones they refuse
    pad = [0.0] * (m - 2)
    with pytest.raises(ParameterError, match="update bound must be finite and positive"):
        validate_update([5.0, 2.0] + pad if bound != math.inf else [-1.0, 2.0] + pad, m, bound)
    if math.isnan(bound):
        with pytest.raises(ParameterError, match="update bound"):
            validate_update([0.0] * m, m, bound)


def test_nan_update_refused_by_every_mechanism():
    from contcount.counters import MonotoneWrapper, UnderestimatorWrapper, ZeroFailureWrapper

    chain = MonotoneWrapper(UnderestimatorWrapper(ZeroFailureWrapper(
        TreeSum(8, 2, 1.0, RandomSource(0)))))
    for mech in (TreeSum(8, 2, 1.0, RandomSource(0)),
                 FTSum(8, 2, 1.0, 2.0, 0.1, RandomSource(0)),
                 chain):
        with pytest.raises(ValidationError, match="finite"):
            mech.update([math.nan, 0.0])
        assert mech.t == 0


# ---------------------------------------------------------------------------
# TreeSum


def covering_blocks(t: int, levels: int):
    """Dyadic blocks partitioning [1, t], highest level first: the reference
    cover order. Block (l, j) covers steps [j*2^l + 1, (j+1)*2^l]."""
    blocks = []
    pos = 0
    for level in range(levels - 1, -1, -1):
        if t & (1 << level):
            blocks.append((level, pos >> level))
            pos += 1 << level
    return blocks


def test_tree_levels_and_blocks():
    assert tree_levels(1) == 1
    assert tree_levels(8) == 4
    assert tree_levels(1024) == 11
    # dyadic decomposition of t=3 with horizon 4: [1,2] and [3,3]
    assert covering_blocks(3, tree_levels(4)) == [(1, 0), (0, 2)]
    for t in range(1, 257):
        blocks = covering_blocks(t, tree_levels(256))
        assert len(blocks) == bin(t).count("1") <= tree_levels(256)


def test_treesum_zero_noise_unit_stream():
    ts = TreeSum(8, 1, math.inf, RandomSource(0))
    assert [float(ts.update([1.0])[0]) for _ in range(3)] == [1.0, 2.0, 3.0]


def test_treesum_zero_noise_vector_stream():
    ts = TreeSum(4, 2, math.inf, RandomSource(0))
    y1 = ts.update([0.5, 0.5])
    y2 = ts.update([0.25, 0.75])
    assert np.array_equal(y1, [0.5, 0.5])
    assert np.array_equal(y2, [0.75, 1.25])


def test_treesum_zero_stream():
    ts = TreeSum(16, 2, math.inf, RandomSource(0))
    for _ in range(16):
        assert np.all(ts.update([0.0, 0.0]) == 0.0)
    noisy = TreeSum(16, 2, 1.0, RandomSource(1))
    for _ in range(16):
        y = noisy.update([0.0, 0.0])
        assert np.all(np.abs(y) <= noisy.envelope.beta)


def test_treesum_zero_noise_matches_cumsum_bitwise():
    gen = np.random.default_rng(5)
    for trial in range(50):
        n = int(gen.integers(1, 64))
        m = int(gen.integers(1, 5))
        stream = random_simplex_stream(gen, n, m)
        ts = TreeSum(n, m, math.inf, RandomSource(trial))
        released = np.array([ts.update(a) for a in stream])
        assert np.array_equal(released, np.cumsum(stream, axis=0))


def treesum_transcript(ts, seed, stream_id):
    """Replay a TreeSum's noise: one (n, m) Laplace draw from a fresh source,
    whose row ((j + 1) << l) - 1 is the noise of dyadic node (l, j)."""
    rows = laplace(ts.node_scale, RandomSource(seed, stream_id), size=(ts.horizon, ts.dim))
    return lambda level, idx: rows[((idx + 1) << level) - 1]


def test_treesum_decomposition_recoverable_from_transcript():
    # every release is the exact true prefix sum plus the replayed noises of
    # its covering nodes, all of even index, bit for bit
    seed, stream_id = 77, 3
    n, m, eps = 32, 3, 0.7
    gen = np.random.default_rng(0)
    stream = random_simplex_stream(gen, n, m)
    ts = TreeSum(n, m, eps, RandomSource(seed, stream_id))
    assert ts.node_scale == tree_levels(n) / eps
    node = treesum_transcript(ts, seed, stream_id)
    true = np.zeros(m)
    for t, a in enumerate(stream, start=1):
        y = ts.update(a)
        true += a
        cover = np.zeros(m)
        for level, idx in covering_blocks(t, ts.levels):
            assert idx % 2 == 0
            cover += node(level, idx)
        assert np.array_equal(y, true + cover)


def test_treesum_release_is_node_sum_in_cover_order(monkeypatch):
    # horizon not a power of two and a bound B != 1: every release equals the
    # true sum plus the covering-node noises added from 0.0 highest level
    # first, bit for bit, at every step and block size; across refills,
    # t = 2048 and t = 3072 read their covers from the level slots
    n, m, bound = 3000, 3, 3.0
    gen = np.random.default_rng(11)
    stream = bound * random_simplex_stream(gen, n, m)
    for block in (1, 7, _NOISE_BLOCK):
        monkeypatch.setattr("contcount.counters._NOISE_BLOCK", block)
        ts = TreeSum(n, m, 0.8, RandomSource(5, 2), update_bound=bound)
        node = treesum_transcript(ts, 5, 2)
        true = np.zeros(m)
        for t, a in enumerate(stream, start=1):
            y = ts.update(a)
            true += a
            cover = np.zeros(m)
            for level, idx in covering_blocks(t, ts.levels):
                cover += node(level, idx)
            assert np.array_equal(y, true + cover), f"block {block}, step {t}"


def test_treesum_releases_do_not_depend_on_block_size(monkeypatch):
    # n = 3000 crosses several refills at every block size
    n, m, bound = 3000, 2, 3.0
    gen = np.random.default_rng(8)
    stream = bound * random_simplex_stream(gen, n, m)
    runs = []
    for block in (1, 7, _NOISE_BLOCK):
        monkeypatch.setattr("contcount.counters._NOISE_BLOCK", block)
        ts = TreeSum(n, m, 0.5, RandomSource(9, 1), update_bound=bound)
        runs.append(np.array([ts.update(a) for a in stream]))
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])


class CountingSource(RandomSource):
    """A source that counts the uniforms drawn from it."""

    draws = 0

    def uniform(self, size=None):
        out = super().uniform(size)
        self.draws += int(np.size(out))
        return out


def test_treesum_draws_one_noise_row_per_step():
    n, m = 2500, 3
    gen = np.random.default_rng(4)
    stream = random_simplex_stream(gen, n, m)
    src = CountingSource(2, 6)
    ts = TreeSum(n, m, 1.0, src)
    assert src.draws == 0
    for a in stream:
        ts.update(a)
    assert src.draws == n * m
    # no noise, no draws: the releases are the exact prefix sums
    for eps, zero_noise in ((1.0, True), (math.inf, False)):
        src = CountingSource(2, 6, zero_noise=zero_noise)
        ts = TreeSum(n, m, eps, src)
        released = np.array([ts.update(a) for a in stream])
        assert src.draws == 0
        assert np.array_equal(released, np.cumsum(stream, axis=0))


def test_huge_horizon_counters_take_updates():
    for mech in (TreeSum(10**12, 2, 1.0, RandomSource(0)),
                 FTSum(10**12, 2, 1.0, 2.0, 0.1, RandomSource(0))):
        for _ in range(3):
            y = mech.update([0.5, 0.5])
        assert mech.t == 3 and y.shape == (2,) and np.all(np.isfinite(y))


def test_treesum_noise_memory_does_not_grow_with_horizon():
    # every node of a 2^16-step, 32-coordinate tree takes 32 MiB; a block of
    # 1,024 noise rows takes 256 KiB
    update = np.full(32, 1.0 / 32)
    RandomSource(0).uniform()  # numpy.random loads on first use; keep it untraced
    tracemalloc.start()
    try:
        ts = TreeSum(2**16, 32, 1.0, RandomSource(1))
        for _ in range(1500):
            ts.update(update)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_treesum_estimate_uses_few_nodes():
    ts = TreeSum(1024, 1, 1.0, RandomSource(0))
    assert ts.levels == 11
    assert ts.node_scale == 11.0


def test_treesum_parameter_and_state_errors():
    with pytest.raises(ParameterError):
        TreeSum(0, 1, 1.0, RandomSource(0))
    with pytest.raises(ParameterError):
        TreeSum(4, 0, 1.0, RandomSource(0))
    ts = TreeSum(2, 1, 1.0, RandomSource(0))
    ts.update([1.0])
    ts.update([1.0])
    with pytest.raises(StateError):
        ts.update([1.0])
    with pytest.raises(ValidationError):
        TreeSum(4, 2, 1.0, RandomSource(0)).update([0.9, 0.9])


def test_treesum_declared_envelope():
    ts = TreeSum(1024, 2, 1.0, RandomSource(0), gamma=0.1)
    expected = 4.0 * 10.0 * math.log2(1024 * 2 / 0.1)
    assert ts.envelope.alpha == 1.0
    assert ts.envelope.beta == pytest.approx(expected)
    assert ts.envelope.gamma == 0.1


# ---------------------------------------------------------------------------
# FTSum


def test_ftsum_flag_count_and_budget_split():
    # hand-evaluated: k = ceil(log2(2 * c_tree * log2(10240))), 5 at c_tree = 1
    assert ftsum_flag_count(1024, 1, 1.0, 2.0, 0.1, 1.0) == 5
    # and ceil(log2(8 * 13.32...)) = 7 at C_TREE = 4, so eps' = 1/(4*1*8)
    ft = FTSum(1024, 1, 1.0, 2.0, 0.1, RandomSource(0))
    assert ft.k == ftsum_flag_count(1024, 1, 1.0, 2.0, 0.1, C_TREE) == 7
    assert ft.eps_prime == pytest.approx(1.0 / 32.0)
    # budget ledger: flag phase plus embedded tree exactly exhaust eps
    spent = 2 * 1 * (ft.k + 1) * ft.eps_prime + 1.0 / 2.0
    assert spent == pytest.approx(1.0)


@pytest.mark.parametrize("n,m,eps,alpha,gamma", [
    (64, 2, 0.5, 1.5, 0.05), (256, 1, 2.0, 3.0, 0.2), (16, 4, 1.0, 2.0, 0.1)])
def test_ftsum_budget_identity_generic(n, m, eps, alpha, gamma):
    ft = FTSum(n, m, eps, alpha, gamma, RandomSource(1))
    assert 2 * m * (ft.k + 1) * ft.eps_prime + eps / 2 <= eps * (1 + 1e-12)


def test_ftsum_zero_noise_threshold():
    ft = FTSum(1024, 3, 1.0, 2.0, 0.1, RandomSource(0, zero_noise=True))
    assert np.all(ft.taus == math.log2(1024))


def test_ftsum_zero_noise_hand_simulation():
    # independent step-by-step simulation of the two-phase rule with all
    # Laplace draws forced to zero
    n, alpha = 16, 2.0
    ft = FTSum(n, 1, 1.0, alpha, 0.1, RandomSource(0, zero_noise=True))
    log_n = math.log2(n)
    flag, tau, acc = 0, log_n, 0.0
    tree_exact = 0.0
    for t in range(1, n + 1):
        tree_exact += 1.0
        if flag <= ft.k:
            acc += 1.0
            if acc > tau:
                flag += 1
                tau = log_n * alpha ** flag
            expected = 0.0 if flag == 0 else log_n * alpha ** (flag - 1)
        else:
            expected = tree_exact
        got = float(ft.update([1.0])[0])
        assert got == expected, f"step {t}: {got} != {expected}"
        if t == 4:
            assert got == 0.0
        if t == 5:
            # first threshold crossing: release jumps from 0 to log2(n) = 4
            assert got == 4.0 and int(ft.flags[0]) == 1


def test_ftsum_phase_one_release_values_and_monotonicity():
    gen = np.random.default_rng(2)
    for trial in range(30):
        n, m = 64, int(gen.integers(1, 4))
        ft = FTSum(n, m, 1.0, 2.0, 0.1, RandomSource(trial, 9))
        stream = random_simplex_stream(gen, n, m)
        allowed = {0.0} | {math.log2(n) * 2.0 ** j for j in range(ft.k + 1)}
        prev = np.zeros(m)
        phase_one_prev = ft.in_phase_one()
        for a in stream:
            phase_one = ft.in_phase_one()
            # no coordinate ever returns to phase one
            assert not np.any(phase_one & ~phase_one_prev)
            y = ft.update(a)
            for r in range(m):
                if phase_one[r]:
                    assert min(abs(y[r] - v) for v in allowed) < 1e-9
                    assert y[r] >= prev[r] - 1e-12
            prev, phase_one_prev = y, phase_one


def test_ftsum_phase_two_releases_embedded_tree_output():
    # huge budget clamps the flag count to k = 1, so a unit stream burns both
    # flags inside the horizon and hands off to the embedded tree counter;
    # zero-noise mode makes the whole trace deterministic
    ft = FTSum(8, 1, 100.0, 2.0, 0.1, RandomSource(3, zero_noise=True))
    assert ft.k == 1
    expected = [0.0, 0.0, 0.0, 3.0, 3.0, 3.0, 6.0, 8.0]
    got = []
    for t in range(8):
        phase_one = bool(ft.in_phase_one()[0])
        got.append(float(ft.update([1.0])[0]))
        if not phase_one:
            assert got[-1] == float(ft.tree.current[0])
    assert got == expected
    assert not ft.in_phase_one()[0]
    assert float(ft.current[0]) == float(ft.tree.current[0]) == 8.0


def ftsum_reference(n, m, eps, alpha, gamma, seed, stream_id, stream,
                    zero_noise=False, update_bound=1.0):
    """Per-coordinate two-phase loop over every coordinate, drawing from the
    flag substream one scalar at a time in coordinate order; the reference
    for FTSum's releases. Also returns how many flag draws it made."""
    rng = RandomSource(seed, stream_id, zero_noise)
    flag_rng = rng.substream(0)
    tree = TreeSum(n, m, eps / 2.0, rng.substream(1),
                   gamma=gamma, update_bound=update_bound)
    k = ftsum_flag_count(n, m, eps, alpha, gamma)
    scale = 2.0 * update_bound / (eps / (4.0 * m * (k + 1)))
    log_n = math.log2(n)
    draws = 0

    def flag_noise():
        nonlocal draws
        draws += 1
        return laplace(scale, flag_rng)

    taus = [log_n + flag_noise() for _ in range(m)]
    flags = [0] * m
    acc = [0.0] * m
    out = []
    for a in stream:
        tree_y = tree.update(a)
        y = np.empty(m)
        for r in range(m):
            if flags[r] <= k:
                acc[r] += a[r]
                if acc[r] + flag_noise() > taus[r]:
                    flags[r] += 1
                    taus[r] = log_n * alpha ** flags[r] + flag_noise()
                y[r] = 0.0 if flags[r] == 0 else log_n * alpha ** (flags[r] - 1)
            else:
                y[r] = tree_y[r]
        out.append(y)
    return np.array(out), flags, k, draws


def test_ftsum_matches_per_coordinate_reference_loop():
    # a large budget gives k = 1, so the heavy coordinates hand off to the
    # tree mid-stream while the light ones stay in the flag phase; with the
    # noise on, any change in the draw order changes the releases. The
    # horizon grows with m, since an entry averages 1/(2m) of its weight; on
    # the long horizon the light coordinates alone make 2048 comparisons, so
    # the flag noise crosses at least two block refills. The in-phase list
    # must name exactly the coordinates whose flag is at most k after every step.
    alpha, gamma = 2.0, 0.1
    for weights, bound in [([0.6, 0.3, 0.08, 0.02], 1.0),
                           ([1.0, 0.9, 0.8, 0.7, 0.05, 0.03, 0.02, 0.01], 1.0),
                           ([1.0, 0.9, 0.8, 0.7, 0.05, 0.03, 0.02, 0.01], 3.0)]:
        m = len(weights)
        eps, short, long = 25.0 * m, 64 * m, 256 * m
        cases = ([(short, eps, False, seed) for seed in range(5)]
                 + [(long, eps, False, seed) for seed in range(2)]
                 + [(short, eps, True, 0), (short, math.inf, False, 0)])
        for n, eps, zero_noise, seed in cases:
            gen = np.random.default_rng(3)
            stream = random_simplex_stream(gen, n, m) * np.array(weights) * bound
            expected, flags, k, draws = ftsum_reference(
                n, m, eps, alpha, gamma, seed, 4, stream, zero_noise, bound)
            ft = FTSum(n, m, eps, alpha, gamma, RandomSource(seed, 4, zero_noise),
                       update_bound=bound)
            got = []
            for a in stream:
                got.append(ft.update(a))
                assert ft._phase_one == np.flatnonzero(ft.flags <= ft.k).tolist()
            assert np.array_equal(np.array(got), expected)
            assert list(ft.flags) == flags
            assert any(f > k for f in flags) and any(f <= k for f in flags)
            if n == long:
                assert draws > 2 * _NOISE_BLOCK


def test_ftsum_parameter_errors():
    # the embedded tree checks n, m, gamma and the update bound
    for bad, message in [({"n": 0}, "n=0"), ({"m": 0}, "m=0"),
                         ({"alpha": 1.0}, "alpha"), ({"alpha": math.inf}, "alpha"),
                         ({"gamma": 0.0}, "gamma"), ({"gamma": 1.5}, "gamma"),
                         ({"update_bound": 0.0}, "update bound"), ({"eps": 0.0}, "epsilon")]:
        params = {"n": 16, "m": 1, "eps": 1.0, "alpha": 2.0, "gamma": 0.1,
                  "rng": RandomSource(0), "update_bound": 1.0, **bad}
        with pytest.raises(ParameterError, match=message):
            FTSum(**params)


@pytest.mark.parametrize("n", [1, 2, 16, 1024])
def test_ftsum_phase_one_bound_at_infinite_eps(n):
    assert ftsum_phase_one_bound(n, 3, 2, math.inf, 0.1) == max(1.0, math.log2(n))


def test_treesum_infinite_eps_has_no_noise():
    assert TreeSum(64, 3, math.inf, RandomSource(0)).node_scale == 0.0


@pytest.mark.parametrize("bound", [1.0, 3.0])
def test_ftsum_infinite_eps_equals_zero_noise(bound):
    # at eps = inf every noise scale is 0, so the releases are those of a
    # zero-noise source; a NaN scale would draw NaN and never raise a flag
    n, m = 64, 2
    stream = random_simplex_stream(np.random.default_rng(11), n, m) * bound
    runs = []
    for zero_noise in (False, True):
        ft = FTSum(n, m, math.inf, 2.0, 0.1, RandomSource(5, 1, zero_noise),
                   update_bound=bound)
        runs.append(np.array([ft.update(a) for a in stream]))
        assert np.all(ft.flags > ft.k)
    assert np.array_equal(runs[0], runs[1])


def test_ftsum_flag_count_clamped_for_degenerate_parameters(caplog):
    caplog.set_level(logging.DEBUG, logger="contcount.counters")
    assert ftsum_flag_count(4, 1, 1000.0, 2.0, 0.5, 0.01) == 1
    assert ftsum_flag_count(4, 1, math.inf, 2.0, 0.5, 4.0) == 1
    # the clamp is logged, but below WARNING: it happens on every such build
    assert [level for _, level, _ in caplog.record_tuples] == [logging.DEBUG] * 2


def test_degenerate_single_step_horizon():
    # n = 1: the tree is a single node, FTSum's threshold scale is log2(1) = 0
    ts = TreeSum(1, 2, 1.0, RandomSource(0, 7))
    assert ts.levels == 1
    y = ts.update([0.5, 0.5])
    assert y.shape == (2,)
    ft = FTSum(1, 1, 1.0, 2.0, 0.1, RandomSource(1, 7))
    assert ft.k >= 1 and ft.log_n == 0.0
    ft.update([1.0])
    ok, _ = envelope_check([[1.0]], [[float(ft.current[0])]], ft.envelope)
    assert ok


# ---------------------------------------------------------------------------
# wrappers


def test_underestimator_shift_examples():
    from contcount.counters import UnderestimatorWrapper, ZeroFailureWrapper

    inner = TreeSum(8, 1, 1.0, RandomSource(0))
    clamped = ZeroFailureWrapper(inner, AccuracyEnvelope(2.0, 3.0, 0.0))
    under = UnderestimatorWrapper(clamped)
    assert under.envelope.alpha == 4.0
    assert under.envelope.beta == 3.0
    for x in (1.0, 0.5, 1.0, 0.0, 1.0):
        y = float(under.update([x])[0])
        assert y == (float(clamped.current[0]) - 3.0) / 2.0
        assert y <= float(under.true_sums[0])

    perfect = PerfectCounter(8, 1)
    identity = UnderestimatorWrapper(perfect)
    for x in (1.0, 1.0, 1.0):
        assert float(identity.update([x])[0]) == float(identity.inner.true_sums[0])


def test_underestimator_requires_zero_failure():
    from contcount.counters import UnderestimatorWrapper

    noisy = TreeSum(8, 1, 1.0, RandomSource(0), gamma=0.2)
    with pytest.raises(ParameterError):
        UnderestimatorWrapper(noisy)


def test_underestimator_grid():
    # exhaustive check over envelope-consistent (x, y) pairs
    alpha, beta = 2.0, 3.0
    shift = lambda y: (y - beta) / alpha
    count = 0
    for x in np.linspace(0.0, 50.0, 100):
        lo, hi = x / alpha - beta, alpha * x + beta
        for y in np.linspace(lo, hi, 100):
            yp = shift(y)
            assert yp <= x + 1e-12
            assert yp >= x / alpha ** 2 - 2 * beta / alpha - 1e-12
            count += 1
    assert count == 10 ** 4


def test_monotone_wrapper_hand_example():
    class Fixed(PerfectCounter):
        outputs = iter([0.4, 1.2, 1.9, 3.5])

        def _step(self, a):
            return np.array([next(self.outputs)])

    from contcount.counters import MonotoneWrapper

    mech = MonotoneWrapper(Fixed(4, 1))
    got = [float(mech.update([1.0])[0]) for _ in range(4)]
    assert got == [0.0, 1.0, 2.0, 3.0]


def test_monotone_wrapper_zeros_and_fuzz():
    from contcount.counters import MonotoneWrapper

    mech = MonotoneWrapper(EmptyCounter(8, 2))
    for _ in range(8):
        assert np.all(mech.update([0.3, 0.3]) == 0.0)

    gen = np.random.default_rng(4)
    for trial in range(20):
        n, m = 40, 3
        inner = TreeSum(n, m, 0.8, RandomSource(trial, 2))
        mono = MonotoneWrapper(inner)
        prev = np.zeros(m)
        for a in random_simplex_stream(gen, n, m):
            y = mono.update(a)
            steps = y - prev
            assert np.all(y == np.floor(y))
            assert set(np.unique(steps)) <= {0.0, 1.0}
            prev = y
        assert mono.envelope.beta == inner.envelope.beta + 1.0


def test_underestimator_chains_stay_below_integer_true_sums():
    from contcount.counters import MonotoneWrapper, UnderestimatorWrapper, ZeroFailureWrapper

    gen = np.random.default_rng(6)
    for trial in range(20):
        n, m = 40, 3
        for mono in (False, True):
            mech = UnderestimatorWrapper(ZeroFailureWrapper(
                TreeSum(n, m, 0.8, RandomSource(trial, 3)), AccuracyEnvelope(1.5, 2.0, 0.0)))
            if mono:
                mech = MonotoneWrapper(mech)
            for r in gen.integers(0, m, size=n):
                y = mech.update(np.eye(m)[r])
                assert np.all(y <= mech.true_sums + 1e-12)


def test_zero_failure_clamp_examples():
    from contcount.counters import ZeroFailureWrapper

    class Fixed(PerfectCounter):
        def __init__(self, outputs):
            super().__init__(len(outputs), 1)
            self.outputs = iter(outputs)

        def _step(self, a):
            return np.array([next(self.outputs)])

    # x = 10 after ten unit updates, envelope (2, 1): upper bound is 21
    for raw, expected in [(20.0, 20.0), (30.0, 21.0)]:
        mech = ZeroFailureWrapper(Fixed([0.0] * 9 + [raw]),
                                  AccuracyEnvelope(2.0, 1.0, 0.0))
        out = [float(mech.update([1.0])[0]) for _ in range(10)]
        assert out[-1] == expected
    # delta absorbs the failure mass
    noisy = TreeSum(8, 1, 1.0, RandomSource(0), gamma=0.25)
    clamped = ZeroFailureWrapper(noisy)
    assert clamped.envelope.gamma == 0.0
    assert clamped.budget.delta == pytest.approx(0.25)


def test_zero_failure_fuzzed_never_violates():
    from contcount.counters import ZeroFailureWrapper

    gen = np.random.default_rng(8)
    violations = 0
    for trial in range(200):
        n, m = int(gen.integers(1, 9)), int(gen.integers(1, 4))
        env = AccuracyEnvelope(1.0 + gen.random(), float(gen.random()), 0.0)
        mech = ZeroFailureWrapper(TreeSum(n, m, 0.3, RandomSource(trial, 1)), env)
        true = np.zeros(m)
        for a in random_simplex_stream(gen, n, m):
            y = mech.update(a)
            true += a
            ok, _ = envelope_check(true, y, env)
            violations += not ok
    assert violations == 0


def test_unit_step_wrappers_refuse_larger_update_bounds():
    """A monotone report or a warm-up of length w covers the count only while it
    grows by at most 1 per step: fed [5.0] five times, a monotone report
    would read 1, 2, 3, 4, 5 against counts 5 to 25."""
    from contcount.counters import MonotoneWrapper, UniformWarmupCounter

    with pytest.raises(ParameterError, match="update bound <= 1, got 5"):
        MonotoneWrapper(PerfectCounter(10, 1, update_bound=5.0))
    with pytest.raises(ParameterError, match="update bound <= 1, got 5"):
        UniformWarmupCounter(TreeSum(10, 2, 1.0, RandomSource(0), update_bound=5.0), 3,
                             RandomSource(0, 2))
    for bound in (0.5, 1.0):
        mono = MonotoneWrapper(PerfectCounter(4, 1, update_bound=bound))
        assert float(mono.update([bound])[0]) == float(bound > 0.5)


class _Scripted(PerfectCounter):
    """Sets its true sums to the next row of ``xs`` and releases the next row of ``ys``."""

    def __init__(self, xs, ys, envelope):
        super().__init__(len(ys), ys.shape[1])
        self.envelope = envelope
        self.rows = iter(zip(xs, ys))

    def _step(self, a):
        x, y = next(self.rows)
        self._true[:] = x
        return y.copy()


def _pin_rows(gen, m):
    """Rows of random values, of NaN, infinities and signed zeros, and zeros."""
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -2.5])
    rows = [gen.normal(0.0, 10.0, m), gen.uniform(-1e3, 1e3, m), np.resize(specials, m),
            np.zeros(m), np.full(m, -0.0), gen.normal(0.0, 1.0, m) * 3.0]
    mixed = gen.normal(0.0, 5.0, m)
    where = gen.random(m) < 0.3
    mixed[where] = gen.choice(specials, int(where.sum()))
    return np.array(rows + [mixed, np.resize(specials[::-1], m)])


@pytest.mark.parametrize("m", [1, 8, 20, 21, 32, 201])
def test_wrapper_releases_match_the_reference_expressions_bit_for_bit(m):
    """Each wrapper's releases equal, byte for byte, those of the expressions
    the wrappers computed with Python-float operands: the clamp
    max(y, x/alpha - beta) then min(., alpha*x + beta), the shift
    (y - beta)/alpha in place, and the report stepped by y > report + 0.5."""
    from contcount.counters import MonotoneWrapper, UnderestimatorWrapper, ZeroFailureWrapper

    gen = np.random.default_rng(m)
    for alpha in (1.0, 1.5, 2.0):
        for beta in (0.0, 0.5, 3.0):
            env = AccuracyEnvelope(alpha, beta, 0.0)
            xs, ys = _pin_rows(gen, m), _pin_rows(gen, m)
            clamp = ZeroFailureWrapper(_Scripted(xs, ys, env), env)
            under = UnderestimatorWrapper(_Scripted(xs, ys, env))
            mono = MonotoneWrapper(_Scripted(xs, ys, env))
            report = np.zeros(m)
            for x, y, a in zip(xs, ys, np.zeros_like(ys)):
                want = y.copy()
                np.maximum(want, x / alpha - beta, out=want)
                np.minimum(want, alpha * x + beta, out=want)
                assert clamp.update(a).tobytes() == want.tobytes(), (alpha, beta)

                want = y.copy()
                want -= beta
                want /= alpha
                assert under.update(a).tobytes() == want.tobytes(), (alpha, beta)

                report += y > report + 0.5
                assert mono.update(a).tobytes() == report.tobytes()


# ---------------------------------------------------------------------------
# baselines and envelope_check


def test_perfect_and_empty_counters():
    perfect = PerfectCounter(4, 2)
    assert np.array_equal(perfect.update([1.0, 0.0]), [1.0, 0.0])
    assert np.array_equal(perfect.update([1.0, 0.0]), [2.0, 0.0])
    assert perfect.envelope == AccuracyEnvelope(1.0, 0.0, 0.0)

    empty = EmptyCounter(4, 2)
    for _ in range(4):
        assert np.all(empty.update([0.5, 0.5]) == 0.0)


def test_envelope_check_cases():
    # perfect trace against (1, 0, 0)
    xs = np.arange(1.0, 11.0).reshape(-1, 1)
    ok, bad = envelope_check(xs, xs, AccuracyEnvelope(1.0, 0.0, 0.0))
    assert ok and not bad.any()
    # empty counter on a unit stream, envelope (1, 5, 0): first violation at t=6
    ys = np.zeros_like(xs)
    ok, bad = envelope_check(xs, ys, AccuracyEnvelope(1.0, 5.0, 0.0))
    assert not ok
    assert list(np.flatnonzero(bad[:, 0])) == [5, 6, 7, 8, 9]
    # vacuous envelope
    ok, _ = envelope_check(xs, ys, AccuracyEnvelope(1e9, 10.0, 0.0))
    assert ok
    with pytest.raises(ValidationError):
        envelope_check(xs, ys[:5], AccuracyEnvelope(1.0, 0.0, 0.0))
    # a NaN release meets neither bound
    ok, bad = envelope_check([[1.0, 1.0]], [[math.nan, 1.0]], AccuracyEnvelope(1.0, 0.0, 0.0))
    assert not ok and bad.tolist() == [[True, False]]


def test_treesum_error_bound_shape():
    assert treesum_error_bound(1024, 2, 1.0, 0.1) == pytest.approx(
        4.0 * 10.0 * math.log2(1024 * 2 / 0.1))
    assert treesum_error_bound(16, 1, math.inf, 0.1) == 0.0


# ---------------------------------------------------------------------------
# one shape check, and no aliasing along a chain


BUILDS = {
    "treesum": lambda n, m, b=1.0: TreeSum(n, m, 1.0, RandomSource(0), update_bound=b),
    "ftsum": lambda n, m, b=1.0: FTSum(n, m, 1.0, 2.0, 0.1, RandomSource(0),
                                       update_bound=b),
    "perfect": lambda n, m, b=1.0: PerfectCounter(n, m, b),
    "empty": lambda n, m, b=1.0: EmptyCounter(n, m, b),
}


@pytest.mark.parametrize("build", list(BUILDS.values()), ids=list(BUILDS))
@pytest.mark.parametrize("n, m", [(0, 2), (4, 0), (-1, -1)])
def test_horizon_and_dimension_share_one_check(build, n, m):
    with pytest.raises(ParameterError) as err:
        build(n, m)
    assert str(err.value) == f"n must be >= 1 and m must be >= 1, got n={n}, m={m}"


@pytest.mark.parametrize("build", list(BUILDS.values()), ids=list(BUILDS))
@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_update_bound_must_be_finite_and_positive(build, bound):
    # a NaN bound used to release NaN, an infinite one -inf
    with pytest.raises(ParameterError) as err:
        build(8, 1, bound)
    assert str(err.value) == f"update bound must be finite and positive, got {bound}"


def _layers(mech):
    """Every mechanism of a chain, outermost first; FTSum's embedded tree too."""
    layers = []
    while mech is not None:
        layers.append(mech)
        if isinstance(mech, FTSum):
            layers.append(mech.tree)
        mech = getattr(mech, "inner", None)
    return layers


def _record_returns(layers) -> dict:
    """Patch each layer's update to keep a copy of what it returns, taken
    before any outer layer can reshape the returned array."""
    returned = {}

    def recorder(layer):
        update = layer.update

        def recorded(a):
            out = update(a)
            returned[id(layer)] = out.copy()
            return out
        return recorded

    for layer in layers:
        layer.update = recorder(layer)
    return returned


def _chains():
    from itertools import permutations

    from contcount.counters import UniformWarmupCounter
    from contcount.harness import MechanismSpec

    for mech in ("treesum", "ftsum", "perfect", "empty"):
        for size in range(4):
            for wraps in permutations(("clamp", "under", "mono"), size):
                spec = MechanismSpec(mech=mech, eps=4.0, wraps=wraps, clamp_alpha=1.5,
                                     clamp_beta=3.0)
                try:
                    spec.build(1, 1, RandomSource(0))
                except ParameterError:
                    continue  # an underestimator over a gamma > 0 envelope
                yield "-".join((mech,) + wraps), lambda n, m, s, spec=spec: spec.build(
                    n, m, RandomSource(s))
    yield "warmup-treesum", lambda n, m, s: UniformWarmupCounter(
        TreeSum(n, m, 4.0, RandomSource(s)), 7, RandomSource(s, 9))


_CHAINS = dict(_chains())


@pytest.mark.parametrize("name", sorted(_CHAINS))
def test_chain_layers_share_true_sums_without_aliasing_releases(name):
    build = _CHAINS[name]
    n, m = _NOISE_BLOCK + 6, 2  # crosses one noise-block refill
    mech, twin = build(n, m, 5), build(n, m, 5)
    layers = _layers(mech)
    returned = _record_returns(layers)
    expected = np.zeros(m)
    for a in random_simplex_stream(np.random.default_rng(11), n, m):
        y = mech.update(a)
        expected += a
        for layer in layers:
            assert np.array_equal(layer.true_sums, expected)
            # an in-place transform never wrote into an inner layer's kept release
            assert np.array_equal(layer.current, returned[id(layer)])
        # a caller that scribbles on a release changes nothing downstream
        assert np.array_equal(y, twin.update(a))
        y[:] = np.nan
