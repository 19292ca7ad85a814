import inspect
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from contcount.counters import (
    C_TREE,
    AccuracyEnvelope,
    CounterMechanism,
    FTSum,
    PerfectCounter,
    PrivacyBudget,
    TreeSum,
    UniformWarmupCounter,
)
from contcount.errors import ParameterError, ValidationError
from contcount.harness import (
    ExperimentConfig,
    MechanismSpec,
    list_scenarios,
    read_csv_results,
    reproduce,
    results_to_csv,
    run_experiment,
    run_trial,
    summarize,
    write_csv,
)
from contcount import harness, instances
from contcount.games import COST_SHARING, CUT, GAMES, RESOURCE, SCHEDULING, play, verify_trace
from contcount.strategies import Greedy
from contcount.noise import RandomSource
from contcount.optimal import OptResult


def small_config(**kwargs):
    defaults = dict(game="resource", instance="random:resource",
                    mechanism=MechanismSpec(mech="treesum", eps=1.0),
                    trials=5, seed=3,
                    instance_params={"n_max": 12, "m_max": 4})
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_trial_count_validated():
    with pytest.raises(ParameterError):
        small_config(trials=0)
    with pytest.raises(ParameterError):
        small_config(game="chess")


def test_run_experiment_deterministic_csv(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_experiment(small_config())[0], str(p1))
    write_csv(run_experiment(small_config())[0], str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_summary_recomputable_from_csv(tmp_path):
    path = tmp_path / "trials.csv"
    results, summary = run_experiment(small_config())
    write_csv(results, str(path))
    reloaded = read_csv_results(str(path))
    assert summarize(reloaded) == summarize(results)
    assert summary["trials"] == 5


def test_write_csv_overwrites_a_longer_file_in_place(tmp_path):
    path = tmp_path / "trials.csv"
    results, _ = run_experiment(small_config())
    text = results_to_csv(results)
    path.write_text(text * 2, encoding="utf-8")
    write_csv(results, str(path))
    assert path.read_text(encoding="utf-8") == text
    assert results_to_csv(read_csv_results(str(path))) == text


def test_csv_writer_opens_without_truncating(tmp_path, monkeypatch):
    """The writer cuts the file after writing it: opened with O_TRUNC, a
    rewritten file makes ext4 allocate its blocks at close. A new file keeps
    the mode open(path, "w") gives it."""
    flags, real_open = [], os.open

    def recording_open(path, flag, *args):
        flags.append(flag)
        return real_open(path, flag, *args)

    monkeypatch.setattr(os, "open", recording_open)
    path = tmp_path / "trials.csv"
    harness._write_csv_text("a,b\n", str(path))
    (flag,) = flags
    assert flag & os.O_CREAT and flag & os.O_WRONLY and not flag & os.O_TRUNC
    umask = os.umask(0)
    os.umask(umask)
    assert (path.read_text(), path.stat().st_mode & 0o777) == ("a,b\n", 0o666 & ~umask)


def numpy_summary(results):
    """The many-row computation, applied to any number of rows."""
    ratios = np.array([r.ratio for r in results], dtype=float)
    finite = ratios[np.isfinite(ratios)]
    return {
        "trials": len(results),
        "mean_sw": float(np.mean([r.sw for r in results])),
        "mean_ratio": float(finite.mean()) if finite.size else math.nan,
        "max_ratio": float(ratios.max()),
        "min_ratio": float(ratios.min()),
        "median_ratio": float(np.median(finite)) if finite.size else math.nan,
        "q90_ratio": float(np.quantile(finite, 0.9)) if finite.size else math.nan,
        "envelope_pass_rate": float(np.mean([r.envelope_ok for r in results])),
    }


@pytest.mark.parametrize("ratio,ok", [
    (1.2345678901234567, True), (0.0, True), (1.0, False), (math.inf, True),
    (math.nan, True), (math.nan, False)])
def test_one_row_summary_matches_the_numpy_path(ratio, ok):
    row = harness.TrialResult(0, 7, 12.375, 13.0, 15.25, ratio, ok, 12.375,
                              np.array([1.0, 2.0]))
    got, expected = summarize([row]), numpy_summary([row])
    assert list(got) == list(expected)
    assert json.dumps(got) == json.dumps(expected)
    assert repr(got) == repr(expected)


def test_ratios_at_least_one_for_exact_maximization():
    results, summary = run_experiment(small_config(trials=20))
    assert all(r.ratio >= 1.0 - 1e-9 for r in results)
    assert summary["max_ratio"] >= summary["mean_ratio"] >= 1.0 - 1e-9


def test_fixed_instance_runs_and_envelope_rate():
    inst = instances.illustrative_shared_vs_private(20, 0.01)
    config = ExperimentConfig(game="resource", instance=inst,
                              mechanism=MechanismSpec(mech="perfect"), trials=3, seed=0)
    results, summary = run_experiment(config)
    assert summary["envelope_pass_rate"] == 1.0
    assert {r.opt for r in results} == {results[0].opt}


def test_reproduce_unknown_scenario():
    with pytest.raises(ParameterError, match="unknown scenario 'thm:made-up'"):
        reproduce("thm:made-up")


def test_list_scenarios_nonempty_with_claims():
    scenarios = list_scenarios()
    names = [name for name, _ in scenarios]
    assert "thm:greedy4" in names
    assert "prop:private-beats-perfect" in names
    assert all(claim for _, claim in scenarios)


def test_warmup_counter_displays():
    rng = RandomSource(0, 5)
    inner = TreeSum(10, 2, 100.0, rng.substream(1))
    mech = UniformWarmupCounter(inner, warmup=4, rng=rng.substream(2))
    # first four players (current at t=0..3) see uniforms on [0, 4]
    seen = [mech.current]
    for t in range(10):
        mech.update([0.5, 0.0])
        seen.append(mech.current)
    for t in range(4):
        assert np.all(seen[t] >= 0.0) and np.all(seen[t] <= 4.0)
    # afterwards the inner release shows through (close to the true count)
    for t in range(4, 10):
        assert abs(seen[t][0] - 0.5 * t) < 1.0
    assert mech.envelope.beta == inner.envelope.beta + 4


def test_warmup_counter_refuses_negative_warmup():
    inner = TreeSum(10, 2, 1.0, RandomSource(0, 1))
    with pytest.raises(ParameterError, match="warmup"):
        UniformWarmupCounter(inner, warmup=-3, rng=RandomSource(0, 2))


def test_warmup_counter_refuses_fractional_warmup():
    inner = TreeSum(10, 2, 1.0, RandomSource(0, 1))
    with pytest.raises(ParameterError, match="warmup"):
        UniformWarmupCounter(inner, warmup=2.7, rng=RandomSource(0, 2))


def test_no_spec_or_counter_sets_the_tree_constant():
    # a smaller constant makes TreeSum's declared envelope false
    assert MechanismSpec().c_tree == C_TREE == 4.0
    with pytest.raises(TypeError):
        MechanismSpec(mech="treesum", c_tree=1.0)
    with pytest.raises(TypeError):
        TreeSum(8, 1, 1.0, RandomSource(0), c_tree=1.0)
    with pytest.raises(TypeError):
        FTSum(8, 1, 1.0, 2.0, 0.1, 1.0, RandomSource(0))


def test_scenario_reports_have_lines_and_measurements():
    report = reproduce("lemma:cut-cycle")
    assert report.passed
    assert report.claim
    assert report.lines
    assert report.checks["sw"]["value"] == 4.0


# the value each declared control's failing check reads, in declaration order
CONTROL_VALUES = {"thm:noinfo": [0.0, 0.0, 1000.0], "thm:lb-undom": [0.0, 1.05],
                  "lemma:marketundom": [1.0, 40.05453571428571], "lemma:cut-cycle": [80.0],
                  "lemma:scheduling-undom": [0.0],
                  "thm:noinfospecial": [0.0, 95.39895444383767],
                  "thm:greedy4": [4.046056], "lemma:future-lb": [9.9],
                  "prop:private-beats-perfect": [190.18999999999994],
                  "thm:cut-greedy-perfect": [math.inf], "lemma:cost-sharing-perfect": [0.5],
                  "thm:scheduling-greedy": [30.080933774509013], "thm:cut-private": [0.0],
                  "lemma:perceived": [1.6], "sec1.1:illustrative": [99.01]}
# (scenario, control index) -> violations of the failing check, where not 1
CONTROL_VIOLATIONS = {("thm:scheduling-greedy", 0): 41, ("thm:cut-private", 0): 100,
                      ("lemma:perceived", 0): 500}
CONTROLS = [(name, index, control)
            for name, (_, _, controls) in sorted(harness._SCENARIOS.items())
            for index, control in enumerate(controls)]


@pytest.mark.parametrize("name, index, control", CONTROLS,
                         ids=[f"{name}-{index}" for name, index, _ in CONTROLS])
def test_declared_controls_fail_only_their_check(name, index, control):
    """Each control, built and judged on the path reproduce takes, breaks the
    claim of its one check, on a pinned number of trials, and leaves the
    others passing."""
    assert {scenario: len(values) for scenario, values in CONTROL_VALUES.items()} == {
        scenario: len(controls) for scenario, (_, _, controls) in harness._SCENARIOS.items()
        if controls}
    report = harness._run_scenario(name, 0, control.get("params", {}),
                                   control.get("config", {}))
    assert not report.passed
    assert report.checks[control["fails"]]["value"] == pytest.approx(
        CONTROL_VALUES[name][index])
    assert {check: judged["violations"] for check, judged in report.checks.items()} == {
        check: CONTROL_VIOLATIONS.get((name, index), 1) if check == control["fails"] else 0
        for check in report.checks}


def test_importing_the_harness_registers_every_scenario():
    """A fresh interpreter that imports only the harness lists the scenarios
    of the golden reports."""
    root = pathlib.Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    code = ("import json; from contcount import harness; "
            "print(json.dumps([name for name, _ in harness.list_scenarios()]))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    golden = json.loads((root / "tests" / "data" / "reproduce_seed0.json").read_text())
    assert json.loads(proc.stdout) == sorted(golden) and len(golden) == 18


# overrides that escaped the builders as bare ZeroDivisionError, ValueError,
# OverflowError or TypeError
BAD_OVERRIDES = [("prop:private-beats-perfect", params) for params in (
    {"q": 0}, {"n": 0}, {"n": -1}, {"q": math.inf}, {"q": math.nan})] + [
    (name, {"n": n}) for name in ("thm:noinfo", "thm:noinfospecial", "sec1.1:illustrative",
                                  "lemma:cut-cycle", "lemma:marketundom",
                                  "lemma:cost-sharing-perfect")
    for n in (math.nan, math.inf)]


@pytest.mark.parametrize("trials", [1.5, math.nan, math.inf, 2.5, "3", True, np.float64(3.0)])
def test_bad_trial_counts_are_refused_before_any_trial(monkeypatch, trials):
    """A trial count must be an integer >= 1, checked before trial 0 runs."""
    monkeypatch.setattr(harness, "_map_trials", lambda *_: pytest.fail("a trial ran"))
    with pytest.raises(ParameterError) as err:
        reproduce("lemma:perceived", trials=trials)
    assert str(err.value) == (f"bad parameters {{'trials': {trials!r}}} for scenario "
                              f"'lemma:perceived': trial count must be >= 1 and an integer, "
                              f"got {trials!r}")
    with pytest.raises(ParameterError, match="trial count must be >= 1 and an integer"):
        small_config(trials=trials)


@pytest.mark.parametrize("seed", [1.5, math.nan, -1, 2 ** 64, "3", True, np.float64(3.0)])
def test_bad_seeds_are_refused_before_any_trial(monkeypatch, seed):
    """A seed must be an integer in [0, 2^64), checked when the config is built,
    so no run writes a seed column that read_csv_results refuses. reproduce
    sets the seed on its built config, which refuses it as a seed, not as a
    bad scenario parameter."""
    monkeypatch.setattr(harness, "_map_trials", lambda *_: pytest.fail("a trial ran"))
    for run in (lambda: run_experiment(small_config(seed=seed)),
                lambda: reproduce("lemma:perceived", seed=seed)):
        with pytest.raises(ParameterError) as err:
            run()
        assert str(err.value) == f"seed must be a 64-bit unsigned integer, got {seed!r}"


def test_reproduce_plays_the_run_seed_and_no_builder_takes_one(monkeypatch):
    assert [name for name, (_, fn, _) in harness._SCENARIOS.items()
            if "seed" in inspect.signature(fn).parameters] == []
    seeds, map_trials = [], harness._map_trials
    monkeypatch.setattr(harness, "_map_trials",
                        lambda config, fn: seeds.append(config.seed) or map_trials(config, fn))
    reproduce("lemma:cut-cycle", seed=7)
    assert seeds == [7]


@pytest.mark.parametrize("game, splits, message", [
    ("resource", 2.5, "splits must be an integer, got 2.5"),
    ("resource", "2", "splits must be an integer, got '2'"),
    ("resource", True, "splits must be an integer, got True"),
    ("resource", np.float64(2.0), "splits must be an integer, got np.float64(2.0)"),
    ("resource", 0, "splits must be >= 1, got 0"),
    ("resource", -1, "splits must be >= 1, got -1")] + [
    (game, 2, "fractional investments apply to the resource game only")
    for game in ("future", "cut", "scheduling", "costshare")])
def test_bad_splits_are_refused_before_any_trial(monkeypatch, game, splits, message):
    """splits must be an integer >= 1, and 1 outside the resource game."""
    monkeypatch.setattr(harness, "_map_trials", lambda *_: pytest.fail("a trial ran"))
    with pytest.raises(ParameterError) as err:
        run_experiment(small_config(game=game, splits=splits))
    assert str(err.value) == message


@pytest.mark.parametrize("name, params", BAD_OVERRIDES)
def test_bad_scenario_parameters_raise_parameter_error(name, params):
    with pytest.raises(ParameterError) as err:
        reproduce(name, **params)
    assert str(err.value).startswith(f"bad parameters {params} for scenario '{name}': ")


@pytest.mark.parametrize("name, keys", [
    ("thm:polylog", {"cr"}),
    ("cor:marketlog", {"sw"}),
])
def test_randomized_scenario_passes(name, keys):
    report = reproduce(name, seed=13, trials=10)
    assert report.passed
    assert set(report.checks) == keys


REGISTRY = ([f"paper:{name}" for name in instances.PAPER_INSTANCES]
            + [f"random:{name}" for name in instances.RANDOM_GENERATORS])


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY)
def test_registry_instance_plays_under_its_kind(spec):
    """Every game whose instance type the entry builds plays it; every other
    game refuses it, naming both types."""
    played = []
    for game, rule in GAMES.items():
        try:
            instances.resolve_instance(rule, spec, RandomSource(0))
        except ParameterError as exc:
            assert str(exc).startswith(
                f"the {game} game plays a {rule.instance_type.__name__}, not a ")
            continue
        played.append(game)
        config = ExperimentConfig(game=game, instance=spec,
                                  mechanism=MechanismSpec(mech="perfect"), compute_opt=False)
        result, trace, instance, _ = run_trial(config, 0)
        assert result.envelope_ok
        assert len(trace.actions) == len(trace.realized) == len(trace.displayed) == instance.n
    assert played


# each game given an instance object of another game's type
MISMATCHED = [(RESOURCE, instances.cut_cycle(3)), (CUT, instances.scheduling_2x2()),
              (SCHEDULING, instances.costshare_public_private(3)),
              (COST_SHARING, instances.twin_temptation(3))]


@pytest.mark.parametrize("rule, inst", MISMATCHED, ids=[rule.name for rule, _ in MISMATCHED])
def test_play_and_run_experiment_refuse_an_instance_of_another_type(rule, inst):
    message = (f"the {rule.name} game plays a {rule.instance_type.__name__}, "
               f"not a {type(inst).__name__}")
    mech = PerfectCounter(inst.n, 8)
    with pytest.raises(ParameterError) as err:
        play(rule, inst, mech, Greedy())
    assert str(err.value) == message and mech.t == 0
    with pytest.raises(ParameterError) as err:
        run_experiment(ExperimentConfig(game=rule.name, instance=inst))
    assert str(err.value) == message


class ShiftedCounter(CounterMechanism):
    """Declares the envelope (1, 1, 0) but releases the true sums plus
    ``shift`` on the coordinates ``coords(t)`` picks after t updates."""

    def __init__(self, n, m, update_bound, shift, coords):
        super().__init__(n, m, PrivacyBudget(math.inf), AccuracyEnvelope(1.0, 1.0, 0.0),
                         update_bound)
        self.shift, self.coords = shift, coords

    def _step(self, a):
        y = self._true.copy()
        y[self.coords(self.t)] += self.shift
        return y


class ShiftedSpec:
    """A MechanismSpec stand-in that builds a ShiftedCounter."""

    def __init__(self, shift, coords):
        self.shift, self.coords = shift, coords

    def build(self, n, m, rng, update_bound=1.0):
        return ShiftedCounter(n, m, update_bound, self.shift, self.coords)


def _everywhere(t):
    return slice(None)


def _moved_players(t):
    # the cut coordinates of the t players who already moved: no later view
    return slice(0, 2 * t)


def _next_player(t):
    # the two cut coordinates that player t sees next
    return slice(2 * t, 2 * t + 2)


@pytest.mark.parametrize("game, instance, shift, coords, ok", [
    ("resource", "random:resource", 0.5, _everywhere, True),
    ("resource", "random:resource", 2.0, _everywhere, False),
    ("resource", "random:resource", -2.0, _everywhere, False),
    ("cut", "paper:cut-cycle", 100.0, _moved_players, True),
    ("cut", "paper:cut-cycle", 2.0, _next_player, False),
])
def test_envelope_ok_reports_releases_outside_the_envelope(game, instance, shift, coords, ok):
    config = ExperimentConfig(game=game, instance=instance, compute_opt=False,
                              mechanism=ShiftedSpec(shift, coords))
    result, trace, inst, _ = run_trial(config, 0)
    assert result.envelope_ok is ok
    # the check reads each player's view: m coordinates, or her 2 for cut
    view = (inst.n, 2 if game == "cut" else inst.m)
    assert trace.displayed.shape == trace.true_before.shape == view


def test_csv_format_stable():
    results, _ = run_experiment(small_config(trials=2))
    text = results_to_csv(results)
    header, *rows = text.strip().splitlines()
    assert header == "trial,seed,sw,psw,opt,ratio,envelope_ok,alg_metric,final_counts"
    assert len(rows) == 2


# a random generator for every game, sized for its exact solver
RANDOM_OF = {"resource": "resource", "future": "future", "cut": "cut",
             "scheduling": "scheduling", "costshare": "costshare"}


@pytest.mark.parametrize("game", sorted(GAMES))
def test_rule_value_is_the_objective_of_play_solver_and_trace_check(game):
    solver, rule = harness._ENGINES[game][1], GAMES[game]
    config = ExperimentConfig(game=game, instance=f"random:{RANDOM_OF[game]}",
                              mechanism=MechanismSpec(mech="treesum"), seed=11)
    for trial in range(3):
        result, trace, inst, _ = run_trial(config, trial)
        opt = solver(inst)
        # a cost-sharing witness is (used sets, assignment)
        witness = opt.witness[1] if game == "costshare" else opt.witness
        assert rule.value(inst, witness) == opt.value == result.opt
        assert trace.metric == rule.value(inst, trace.actions) == result.alg_metric
        # lowering the worst utility moves every total, the makespan too
        trace.realized[trace.realized.argmin()] -= rule.tol + 1e-6
        with pytest.raises(ValidationError, match="realized utilities"):
            verify_trace(trace)


@pytest.mark.parametrize("game, fake_opt", [("resource", -1.0), ("scheduling", 1e12),
                                             ("costshare", 1e12)])
def test_play_beyond_the_exact_optimum_is_refused(monkeypatch, game, fake_opt):
    play_game, _ = harness._ENGINES[game]
    monkeypatch.setitem(harness._ENGINES, game,
                        (play_game, lambda inst: OptResult(fake_opt, None, "fake")))
    config = ExperimentConfig(game=game, instance=f"random:{RANDOM_OF[game]}", seed=11)
    with pytest.raises(ValidationError, match="beyond the exact optimum"):
        run_trial(config, 0)


@pytest.mark.parametrize("name", sorted(harness._SCENARIOS))
def test_reproduce_checks_trials_for_every_scenario(name):
    _, fn, _ = harness._SCENARIOS[name]
    if "trials" in inspect.signature(fn).parameters:
        with pytest.raises(ParameterError, match="trial count must be >= 1"):
            reproduce(name, trials=0)
        assert reproduce(name, seed=1, trials=1).checks
    else:
        for trials in (0, 1):
            with pytest.raises(ParameterError, match=f"scenario '{name}' takes no 'trials'"):
                reproduce(name, trials=trials)


@pytest.mark.parametrize("name", sorted(harness._SCENARIOS))
def test_every_check_reports_value_bound_slack_and_violations(name):
    _, fn, _ = harness._SCENARIOS[name]
    trials = {"trials": 2} if "trials" in inspect.signature(fn).parameters else {}
    report = reproduce(name, seed=1, **trials)
    assert report.checks and len(report.lines) == len(report.checks)
    for check in report.checks.values():
        assert set(check) == {"value", "bound", "slack", "violations"}
        assert isinstance(check["violations"], int) and check["violations"] >= 0
    assert report.passed == all(c["violations"] == 0 for c in report.checks.values())


@pytest.mark.parametrize("sense, value, bound, tol, slack, holds", [
    ("<=", 4.25, 4.0, 0.25, -0.25, True),
    ("<=", 4.5, 4.0, 0.25, -0.5, False),
    ("<", 2.0, 2.0, 0.0, 0.0, False),
    (">=", 1.0, 3.0, 0.0, -2.0, False),
    (">=", 5.0, 3.0, 0.0, 2.0, True),
    ("==", 4.0, 4.0, 0.0, 0.0, True),
    ("==", 4.0, 4.0 + 1e-15, 0.0, -1e-15, False),
    ("==", math.nan, 1.0, 1e-9, math.nan, False),
])
def test_check_slack_and_tolerance(sense, value, bound, tol, slack, holds):
    check = harness.Check("x", None, sense, bound, tol)
    got = check.slack(value, bound)
    assert got == pytest.approx(slack, rel=1e-6, nan_ok=True)
    assert check.holds(got) is holds


def test_check_refuses_an_unknown_sense():
    with pytest.raises(ParameterError, match="unknown check sense"):
        harness.Check("x", None, "=<", 1.0)


def test_mean_check_judges_the_mean_and_reports_the_least_slack_trial():
    mean = harness.Check("x", None, "<", 2.0, mean=True)
    assert harness._judge(mean, [(1.0, 2.0), (3.0, 2.0)]) == {
        "value": 2.0, "bound": 2.0, "slack": 0.0, "violations": 1}
    each = harness.Check("x", None, ">=", None, 1e-9)
    rows = [(5.0, 1.0), (1.0, 2.0), (math.nan, 0.0), (0.0, 4.0)]
    assert harness._judge(each, rows)["violations"] == 3
    assert math.isnan(harness._judge(each, rows)["value"])


@pytest.mark.parametrize("spec, envelope", [
    (MechanismSpec(mech="ftsum", wraps=("clamp",), clamp_beta=3.0), "declared alpha, 3"),
    (MechanismSpec(mech="ftsum", wraps=("clamp",), clamp_alpha=1.5), "1.5, declared beta"),
    (MechanismSpec(mech="ftsum", wraps=("clamp",)), "declared alpha, declared beta"),
    (MechanismSpec(mech="ftsum", wraps=("clamp",), clamp_beta=0.0), "declared alpha, 0"),
])
def test_clamp_target_defaults_to_the_declared_envelope(spec, envelope):
    declared = MechanismSpec(mech="ftsum").build(16, 2, RandomSource(0)).envelope
    assert declared.alpha == 2.0
    alpha, beta = envelope.split(", ")
    want = (declared.alpha if alpha == "declared alpha" else float(alpha),
            declared.beta if beta == "declared beta" else float(beta), 0.0)
    got = spec.build(16, 2, RandomSource(0)).envelope
    assert (got.alpha, got.beta, got.gamma) == want


def test_clamp_alpha_zero_is_refused():
    with pytest.raises(ParameterError, match="alpha must be finite and >= 1"):
        MechanismSpec(mech="treesum", wraps=("clamp",), clamp_alpha=0.0).build(
            16, 2, RandomSource(0))


@pytest.mark.parametrize("row, message", [
    ("0,3,1.0,1.0,1.0,1.0,1,1.0", "line 2: 8 cells, expected 9"),
    ("0,3,1.0,1.0,1.0,1.0,1,1.0,2.0,x", "line 2: 10 cells, expected 9"),
    ("", "line 2: 1 cells, expected 9"),
    ("0,3,abc,1.0,1.0,1.0,1,1.0,1.0", "line 2: could not convert"),
    ("0,3,1.0,1.0,1.0,1.0,yes,1.0,1.0", "line 2: invalid literal"),
    ("0,3,1.0,1.0,1.0,1.0,1,1.0,1.0;z", "line 2: could not convert"),
])
def test_read_csv_rejects_malformed_rows(tmp_path, row, message):
    path = tmp_path / "trials.csv"
    path.write_text(f"{harness.CSV_HEADER}\n{row}\n0,3,1.0,1.0,1.0,1.0,1,1.0,1.0\n")
    with pytest.raises(ValidationError, match=message):
        read_csv_results(str(path))


def test_read_csv_missing_or_foreign_file(tmp_path):
    with pytest.raises(ParameterError, match="cannot read CSV file"):
        read_csv_results(str(tmp_path / "missing.csv"))
    path = tmp_path / "other.csv"
    path.write_text("a,b\n")
    with pytest.raises(ParameterError, match="unexpected CSV header"):
        read_csv_results(str(path))
    path.write_text("")
    with pytest.raises(ParameterError, match="unexpected CSV header"):
        read_csv_results(str(path))
