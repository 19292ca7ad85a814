"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. Expected values are either exact closed forms,
independently recomputed oracles, or the implementation's documented
constants; stated runtime budgets are asserted alongside the numeric checks.
"""

import itertools
import math
import time

import numpy as np

from contcount.counters import (
    C_TREE,
    AccuracyEnvelope,
    EmptyCounter,
    FTSum,
    MonotoneWrapper,
    TreeSum,
    ZeroFailureWrapper,
    envelope_check,
)
from contcount.games import COST_SHARING, CUT, FUTURE_DEPENDENT, RESOURCE, SCHEDULING, play
from contcount.harness import reproduce
from contcount import instances, optimal
from contcount.noise import RandomSource, laplace
from contcount.strategies import Greedy


def _passed(num, name, **info):
    extras = " ".join(f"{k}={v}" for k, v in info.items())
    print(f"ACCEPTANCE {num:02d} {name}: PASS {extras}".rstrip())


def random_simplex_stream(gen, n, m):
    raw = gen.random((n, m))
    scale = gen.random(n) / np.maximum(raw.sum(axis=1), 1e-12)
    return raw * scale[:, None]


def test_01_treesum_exactness_oracle():
    start = time.perf_counter()
    gen = np.random.default_rng(2024)
    for trial in range(1000):
        n = int(gen.integers(1, 257))
        m = int(gen.integers(1, 9))
        stream = random_simplex_stream(gen, n, m)
        mech = TreeSum(n, m, math.inf, RandomSource(trial, 100))
        released = np.array([mech.update(a) for a in stream])
        expected = np.cumsum(stream, axis=0)
        assert np.array_equal(released, expected), f"trial {trial} not bit-exact"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"exactness oracle took {elapsed:.1f}s"
    _passed(1, "treesum zero-noise bit-exact", streams=1000, seconds=f"{elapsed:.1f}")


def test_02_treesum_envelope_rate():
    start = time.perf_counter()
    n, m, eps, gamma = 1024, 2, 1.0, 0.1
    bound = C_TREE * math.log2(n) * math.log2(n * m / gamma) / eps
    trials, hits = 500, 0
    gen = np.random.default_rng(7)
    stream = random_simplex_stream(gen, n, m)
    for trial in range(trials):
        mech = TreeSum(n, m, eps, RandomSource(trial, 200), gamma=gamma)
        worst = 0.0
        true = np.zeros(m)
        for a in stream:
            y = mech.update(a)
            true += a
            worst = max(worst, float(np.abs(y - true).max()))
        hits += worst <= bound
    elapsed = time.perf_counter() - start
    # binomial 3-sigma slack on the 0.9 target: at least 450/500
    assert hits >= 450, f"only {hits}/500 trials inside the additive bound {bound:.1f}"
    assert elapsed < 60.0, f"envelope trials took {elapsed:.1f}s"
    _passed(2, "treesum envelope rate", hits=f"{hits}/500", bound=f"{bound:.1f}",
            seconds=f"{elapsed:.1f}")


def test_03_ftsum_structure():
    # zero-noise hand simulation, step for step
    n, alpha = 16, 2.0
    mech = FTSum(n, 1, 1.0, alpha, 0.1, RandomSource(0, zero_noise=True))
    log_n = math.log2(n)
    flag, tau, acc = 0, log_n, 0.0
    exact = 0.0
    first_flag_step = None
    for t in range(1, n + 1):
        exact += 1.0
        if flag <= mech.k:
            acc += 1.0
            if acc > tau:
                flag += 1
                tau = log_n * alpha ** flag
                if first_flag_step is None:
                    first_flag_step = t
            expected = 0.0 if flag == 0 else log_n * alpha ** (flag - 1)
        else:
            expected = exact
        assert float(mech.update([1.0])[0]) == expected
    assert first_flag_step == 5
    assert int(mech.flags[0]) >= 1

    # phase-one releases nondecreasing on 1,000 fuzzed streams
    gen = np.random.default_rng(3)
    for trial in range(1000):
        n_t = int(gen.integers(2, 65))
        m_t = int(gen.integers(1, 4))
        ft = FTSum(n_t, m_t, 1.0, 2.0, 0.1, RandomSource(trial, 300))
        prev = np.zeros(m_t)
        for a in random_simplex_stream(gen, n_t, m_t):
            phase_one = ft.in_phase_one()
            y = ft.update(a)
            assert np.all(y[phase_one] >= prev[phase_one] - 1e-12)
            prev = y
        # budget identity holds at every construction
        eps = ft.budget.epsilon
        assert 2 * m_t * (ft.k + 1) * ft.eps_prime + eps / 2 <= eps * (1 + 1e-12)
    _passed(3, "ftsum structure", first_flag="t=5", fuzzed=1000)


def test_04_ftsum_envelope_rate():
    start = time.perf_counter()
    n, m, eps, alpha, gamma = 1024, 1, 1.0, 2.0, 0.1
    probe = FTSum(n, m, eps, alpha, gamma, RandomSource(0, 400))
    env = probe.envelope  # documented implementation constant for beta
    gen = np.random.default_rng(11)
    stream = random_simplex_stream(gen, n, m)
    true = np.cumsum(stream, axis=0)
    trials, hits = 500, 0
    for trial in range(trials):
        mech = FTSum(n, m, eps, alpha, gamma, RandomSource(trial, 400))
        inside, _ = envelope_check(true, [mech.update(a) for a in stream], env)
        hits += inside
    elapsed = time.perf_counter() - start
    assert hits >= 450, f"only {hits}/500 trials inside the (2, {env.beta:.0f}) envelope"
    assert elapsed < 60.0, f"ftsum envelope trials took {elapsed:.1f}s"
    _passed(4, "ftsum envelope rate", hits=f"{hits}/500", beta=f"{env.beta:.0f}",
            seconds=f"{elapsed:.1f}")


def test_05_wrapper_contracts():
    # underestimator grid: 10^4 envelope-consistent (x, y) pairs, no violations
    alpha, beta = 2.0, 3.0
    violations = 0
    for x in np.linspace(0.0, 60.0, 100):
        for y in np.linspace(x / alpha - beta, alpha * x + beta, 100):
            yp = (y - beta) / alpha
            if yp > x + 1e-12 or yp < x / alpha ** 2 - 2 * beta / alpha - 1e-12:
                violations += 1
    assert violations == 0

    # monotone wrapper: integral, nondecreasing, unit-bounded steps on fuzz
    gen = np.random.default_rng(5)
    for trial in range(50):
        inner = TreeSum(32, 2, 0.5, RandomSource(trial, 500))
        mono = MonotoneWrapper(inner)
        prev = np.zeros(2)
        for a in random_simplex_stream(gen, 32, 2):
            y = mono.update(a)
            assert np.all(y == np.round(y))
            assert set(np.unique(y - prev)) <= {0.0, 1.0}
            prev = y

    # zero-failure wrapper: no envelope violation over 10^4 fuzzed trials
    bad = 0
    for trial in range(10 ** 4):
        n = 4
        env = AccuracyEnvelope(1.5, 1.0, 0.0)
        mech = ZeroFailureWrapper(TreeSum(n, 1, 0.2, RandomSource(trial, 501)), env)
        true = np.zeros(1)
        for a in random_simplex_stream(gen, n, 1):
            y = mech.update(a)
            true += a
            ok, _ = envelope_check(true, y, env)
            bad += not ok
    assert bad == 0
    _passed(5, "wrapper contracts", grid=10 ** 4, clamp_trials=10 ** 4, violations=0)


def test_06_greedy4_bound():
    start = time.perf_counter()
    report = reproduce("thm:greedy4", seed=6, trials=200)
    elapsed = time.perf_counter() - start
    assert report.passed
    assert report.checks["cr"]["value"] <= 4.0 + 1e-9
    assert elapsed < 120.0, f"greedy4 trials took {elapsed:.1f}s"
    _passed(6, "greedy 4-competitive vs exact matching",
            max_cr=f"{report.checks['cr']['value']:.4f}", seconds=f"{elapsed:.1f}")


def test_07_illustrative_exact_numbers():
    n, eps = 100, 0.01
    inst = instances.illustrative_shared_vs_private(n, eps)
    trace = play(RESOURCE, inst, EmptyCounter(n, inst.m), Greedy())
    h_n = instances.harmonic_number(n)
    assert abs(trace.social_welfare - h_n) <= 1e-9
    benchmark = RESOURCE.value(inst, [i + 1 for i in range(n)])
    assert benchmark == 99.0
    cr = benchmark / trace.social_welfare
    assert abs(cr - 99.0 / h_n) <= 1e-9
    # the exact matching optimum additionally parks one player on the public
    # copy worth 1.0 (documented delta against the 99 benchmark)
    exact = optimal.opt_resource_sharing(inst).value
    assert abs(exact - 99.01) <= 1e-9
    _passed(7, "shared-vs-private exact numbers", sw=f"H_100={h_n:.6f}",
            opt=benchmark, cr=f"{cr:.4f}")


def test_08_perceived_welfare_bound():
    report = reproduce("lemma:perceived", seed=8, trials=500)
    assert report.passed
    assert report.checks["psw_over_sw"]["violations"] == 0
    _passed(8, "perceived-welfare bound PSW <= 2ab*SW",
            max_ratio=f"{report.checks['psw_over_sw']['value']:.3f}",
            bound=report.checks["psw_over_sw"]["bound"])


def test_09_worst_case_reproductions_exact():
    checks = {
        "thm:noinfo": lambda m: m["sw"] == 10.0 and m["opt"] == 1000.0,
        "lemma:cut-cycle": lambda m: m["sw"] == 4.0 and m["opt"] == 80.0,
        "lemma:scheduling-undom": lambda m: m["makespan"] >= 1.0 and m["opt"] == 0.0,
        "lemma:cost-sharing-perfect": lambda m: m["total_cost"] == 10.0 and m["opt"] == 1.1,
        "lemma:future-lb": lambda m: m["sw"] == 1.0 and abs(m["opt"] - 9.9) <= 1e-9,
        "lemma:marketundom": lambda m: m["sw"] == 1.0,
    }
    for name, check in checks.items():
        report = reproduce(name, seed=9)
        values = {key: c["value"] for key, c in report.checks.items()}
        assert report.passed, f"{name} failed: {report.checks}"
        assert check(values), f"{name} numbers off: {report.checks}"
    _passed(9, "closed-form worst cases", scenarios=len(checks))


def test_10_cut_private_bound():
    report = reproduce("thm:cut-private", seed=10, trials=100)
    assert report.passed
    assert report.checks["sw"]["violations"] == 0
    _passed(10, "cut welfare >= 2|E|/(2a^2) - 2bn/a",
            worst_margin=f"{report.checks['sw']['slack']:.2f}")


def test_11_scheduling_bounds():
    report = reproduce("thm:scheduling-greedy", seed=11, trials=100)
    assert report.passed
    assert report.checks["makespan"]["violations"] + report.checks["opt"]["violations"] == 0
    assert report.checks["perfect_makespan"]["violations"] == 0
    _passed(11, "scheduling makespan bounds (clamped and perfect)", trials=100)


def test_12_private_beats_perfect():
    start = time.perf_counter()
    report = reproduce("prop:private-beats-perfect", seed=12, trials=200)
    elapsed = time.perf_counter() - start
    assert report.passed
    assert report.checks["mean_cost"]["value"] < 25.0
    assert report.checks["mean_cost"]["value"] < report.checks["mean_cost_vs_perfect"]["bound"]
    assert elapsed < 60.0, f"warm-up construction trials took {elapsed:.1f}s"
    _passed(12, "private counters beat perfect on cost sharing",
            mean_cost=f"{report.checks['mean_cost']['value']:.2f}", seconds=f"{elapsed:.1f}")


def test_13_dp_smoke_single_release():
    # one-step release x + Lap(1/eps) on neighboring streams differing by one
    # unit update; discretized output distributions must stay within e^eps up
    # to binomial noise
    eps, n_samples, bins = 1.0, 10 ** 5, 20
    scale = 1.0 / eps
    lo, hi = -4.0, 5.0
    samples_a = 0.0 + laplace(scale, RandomSource(13, 1), size=n_samples)
    samples_b = 1.0 + laplace(scale, RandomSource(13, 2), size=n_samples)
    edges = np.linspace(lo, hi, bins + 1)
    count_a = np.histogram(np.clip(samples_a, lo, hi - 1e-9), bins=edges)[0]
    count_b = np.histogram(np.clip(samples_b, lo, hi - 1e-9), bins=edges)[0]
    checked = 0
    for ca, cb in zip(count_a, count_b):
        if ca == 0 or cb == 0:
            continue  # slack would be infinite
        slack = math.sqrt((1 - ca / n_samples) / ca + (1 - cb / n_samples) / cb)
        tol = math.exp(eps) * (1.0 + 5.0 * slack)
        assert ca / cb <= tol and cb / ca <= tol
        checked += 1
    assert checked >= bins - 2
    _passed(13, "single-release DP smoke test", bins_checked=checked)


def test_14_opt_cross_validation():
    gen_seed = 14
    total = 0

    def brute_resource(inst):
        return max(RESOURCE.value(inst, a)
                   for a in itertools.product(*inst.action_sets))

    def brute_scheduling(inst):
        return min(SCHEDULING.value(inst, a)
                   for a in itertools.product(range(inst.m), repeat=inst.n))

    def brute_cut(inst):
        return max(CUT.value(inst, c)
                   for c in itertools.product((0, 1), repeat=inst.n))

    def brute_cost(inst):
        return min(COST_SHARING.value(inst, a)
                   for a in itertools.product(*inst.action_sets))

    def brute_future(inst):
        return max(FUTURE_DEPENDENT.value(inst, a)
                   for a in itertools.product(*inst.action_sets))

    plans = [
        (50, lambda r: instances.random_resource_sharing(r, n_max=8, m_max=4),
         optimal.opt_resource_sharing, brute_resource),
        (40, lambda r: instances.random_scheduling(r, n_max=6, m_max=3),
         optimal.opt_scheduling, brute_scheduling),
        (40, lambda r: instances.random_cut(r, n_max=8, p=0.4),
         optimal.opt_cut, brute_cut),
        (40, lambda r: instances.random_cost_sharing(r, n_max=8, m_max=6),
         optimal.opt_cost_sharing, brute_cost),
        (30, lambda r: instances.random_resource_sharing(r, n_max=5, m_max=3),
         optimal.opt_future_dependent, brute_future),
    ]
    for count, make, solver, oracle in plans:
        for trial in range(count):
            rng = RandomSource(gen_seed, 1000 + total)
            inst = make(rng)
            assert solver(inst).value == oracle(inst), f"mismatch on trial {total}"
            total += 1
    assert total == 200
    _passed(14, "opt solvers equal exhaustive brute force", instances=total)
