"""A config's trials run in forked workers: the outputs are the same bytes
for any worker count, errors are the ones a serial run raises, no child
outlives the call, and the run stays serial where forking is unsafe."""

import contextlib
import io
import os
import pickle
import signal
import sys
import threading
import weakref
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contcount import cli, harness, strategies
from contcount.errors import ParameterError, SizeError, ValidationError
from contcount.games import CostSharingInstance, CutInstance
from contcount.harness import ExperimentConfig, MechanismSpec, results_to_csv, run_experiment
from contcount.optimal import OptResult

WORKER_COUNTS = (1, 2, 3)
# game -> instance; costshare plays a fixed paper instance whose optimum is
# solved once, before any trial, and inherited by every worker
GAME_INSTANCES = {"resource": "random:resource", "future": "random:future",
                  "cut": "random:cut", "scheduling": "random:scheduling",
                  "costshare": "paper:costshare-public-private"}


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("game", sorted(GAME_INSTANCES))
def test_game_run_csv_and_summary_are_the_same_bytes_for_any_worker_count(
        monkeypatch, tmp_path, game):
    outputs = {}
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(harness, "_WORKERS", workers)
        csv = tmp_path / f"w{workers}.csv"
        rc, out, err = _main(["game", "run", "--game", game, "--instance", GAME_INSTANCES[game],
                              "--mech", "treesum", "--eps", "2", "--trials", "7",
                              "--out", str(csv), "--json"])
        assert rc == 0 and not err
        outputs[workers] = (out, csv.read_bytes())
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]
    assert_no_child_left()


def test_a_fixed_instance_optimum_is_solved_once_across_workers(monkeypatch, tmp_path):
    play, solver = harness._ENGINES["costshare"]
    calls = []

    def solve_once(inst):
        # a child inherits the parent's list, so a second solve anywhere fails
        calls.append(os.getpid())
        if len(calls) > 1:
            raise AssertionError("optimum solved twice")
        return solver(inst)

    monkeypatch.setitem(harness._ENGINES, "costshare", (play, solve_once))
    monkeypatch.setattr(harness, "_WORKERS", 2)
    config = ExperimentConfig(game="costshare", instance="paper:costshare-public-private",
                              mechanism=MechanismSpec(mech="treesum"), trials=4)
    results, _ = run_experiment(config)
    assert calls == [os.getpid()] and [r.trial for r in results] == [0, 1, 2, 3]
    # an instance file is read and parsed once per run, before any trial, and
    # its trials are the same bytes for any worker count
    path = tmp_path / "costshare.txt"
    path.write_text("3 2\n3.0 1.0\n0 1\n0 1\n1\n")
    parses, parse = [], CostSharingInstance.parse
    monkeypatch.setattr(CostSharingInstance, "parse",
                        classmethod(lambda cls, text: parses.append(text) or parse(text)))
    config = replace(config, instance=str(path), trials=6)
    csvs = []
    for workers in (1, 3):
        monkeypatch.setattr(harness, "_WORKERS", workers)
        calls.clear()
        csvs.append(results_to_csv(run_experiment(config)[0]))
        assert calls == [os.getpid()] and len(parses) == 1
        parses.clear()
    assert csvs[0] == csvs[1]


def test_no_trial_trace_or_mechanism_outlives_its_row(monkeypatch):
    # only the rows, the fixed instance and its optimum stay alive for the later trials
    refs, alive = [], []
    run_trial = harness.run_trial

    def spy(config, trial, cached_opt=None):
        alive.append([ref() is not None for ref in refs])
        played = run_trial(config, trial, cached_opt)
        refs[:] = [weakref.ref(played[k]) for k in (1, 3)]   # trace, mech
        return played

    monkeypatch.setattr(harness, "run_trial", spy)
    monkeypatch.setattr(harness, "_WORKERS", 1)
    config = ExperimentConfig(game="costshare", instance="paper:costshare-public-private",
                              mechanism=MechanismSpec(mech="treesum"), trials=3)
    results, _ = run_experiment(config)
    assert [r.trial for r in results] == [0, 1, 2]
    assert alive == [[], [False, False], [False, False]]


def test_every_trial_runs_after_the_fork(monkeypatch):
    # the parent plays its chunk, trial 0 included, only once its child is forked
    parent, events = os.getpid(), []
    real_fork, run_trial = os.fork, harness.run_trial

    def fork():
        events.append((os.getpid(), "fork"))
        return real_fork()

    def spy(config, trial, cached_opt=None):
        events.append((os.getpid(), trial))
        return run_trial(config, trial, cached_opt)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(harness, "run_trial", spy)
    monkeypatch.setattr(harness, "_WORKERS", 2)
    config = ExperimentConfig(game="resource", instance="random:resource",
                              mechanism=MechanismSpec(mech="treesum"), seed=3, trials=4)
    results, _ = run_experiment(config)
    assert [r.trial for r in results] == [0, 1, 2, 3]
    assert [event for pid, event in events if pid == parent] == ["fork", 0, 1]
    assert_no_child_left()


def test_an_oversized_fixed_optimum_is_refused_before_any_trial_or_fork(monkeypatch):
    # a 25-node odd cycle is not bipartite, so its exact cut needs 2^24 colorings
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a child forked"))
    monkeypatch.setattr(harness, "run_trial", lambda *_: pytest.fail("a trial ran"))
    monkeypatch.setattr(harness, "_WORKERS", 2)
    config = ExperimentConfig(game="cut", instance=CutInstance(25, [(i, (i + 1) % 25)
                                                                    for i in range(25)]),
                              mechanism=MechanismSpec(mech="treesum"), trials=4)
    with pytest.raises(SizeError, match="brute-force budget"):
        run_experiment(config)


MECHANISMS = "(have: empty, ftsum, perfect, treesum)"
WRAPPERS = "(have: clamp, mono, under)"


@pytest.mark.parametrize("fields, message", [
    (lambda: {"strategy": "nope"}, "unknown strategy spec 'nope'"),
    (lambda: {"strategy": None}, "unknown strategy spec None"),
    (lambda: {"strategy": 3}, "unknown strategy spec 3"),
    (lambda: {"strategy": "scripted:nope"}, "unknown scripted strategy 'nope'"),
    (lambda: {"mechanism": MechanismSpec(mech="nope")}, f"unknown mechanism 'nope' {MECHANISMS}"),
    (lambda: {"mechanism": MechanismSpec(mech=["x"])}, f"unknown mechanism ['x'] {MECHANISMS}"),
    (lambda: {"mechanism": MechanismSpec(wraps=("clamp", "nope"))},
     f"unknown wrapper 'nope' {WRAPPERS}"),
    (lambda: {"mechanism": MechanismSpec(wraps=[["x"]])}, f"unknown wrapper ['x'] {WRAPPERS}"),
    (lambda: {"mechanism": MechanismSpec(wraps="mono")},
     "wraps must be a sequence of wrapper names, got 'mono'"),
    (lambda: {"mechanism": MechanismSpec(wraps=None)},
     "wraps must be a sequence of wrapper names, got None"),
    # a one-shot iterable: checking its names would use it up before build reads it
    (lambda: {"mechanism": MechanismSpec(mech="treesum", wraps=(w for w in ["clamp", "under"]))},
     "wraps must be a sequence of wrapper names, got <generator"),
], ids=["strategy", "strategy-none", "strategy-int", "scripted", "mechanism", "mechanism-list",
        "wrapper", "wrapper-list", "wraps-string", "wraps-none", "wraps-generator"])
def test_bad_names_are_refused_when_the_config_is_built(monkeypatch, fields, message):
    events = []

    def fork():
        events.append("fork")
        raise OSError("the spy forks no child")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(harness, "_WORKERS", 2)
    with pytest.raises(ParameterError) as err:
        config = ExperimentConfig(game="resource", instance="random:resource", trials=4,
                                  **fields())
        events.append("built")
        run_experiment(config)
    assert str(err.value).startswith(message)
    assert events == []


@pytest.mark.parametrize("make, message", [
    (lambda: ExperimentConfig(game=["resource"], instance="random:resource"),
     "unknown game ['resource'] (have: costshare, cut, future, resource, scheduling)"),
    (lambda: harness.reproduce(["x"]), "unknown scenario ['x'] (see list-scenarios)"),
    (lambda: strategies.scripted(["x"]), "unknown scripted strategy ['x'] (have: "),
], ids=["game", "scenario", "script"])
def test_names_of_the_wrong_type_are_refused_as_unknown(make, message):
    with pytest.raises(ParameterError) as err:
        make()
    assert str(err.value).startswith(message)


# ---------------------------------------------------------------------------
# failures and cleanup

FAILING = ExperimentConfig(game="resource", instance="random:resource", trials=7, seed=11)


def _fail_at(monkeypatch, trials, action):
    """Make the resource solver of FAILING's trials in ``trials`` call
    ``action(inst)``, which replaces the exact optimum."""
    play, solver = harness._ENGINES["resource"]
    marked = {pickle.dumps(harness.run_trial(FAILING, t)[2]) for t in trials}

    def solve(inst):
        return action(inst) if pickle.dumps(inst) in marked else solver(inst)

    monkeypatch.setitem(harness._ENGINES, "resource", (play, solve))


def _beaten_optimum(inst):
    # play earns more than -1, so run_trial refuses the trial
    return OptResult(-1.0, None, "fake")


def _serial_error(monkeypatch):
    monkeypatch.setattr(harness, "_WORKERS", 1)
    with pytest.raises(Exception) as serial:
        run_experiment(FAILING)
    return serial.value


@pytest.mark.parametrize("failing, first", [((5,), 5), ((3, 5), 3), ((1, 5), 1)])
def test_the_lowest_failing_trial_raises_as_in_a_serial_run(monkeypatch, failing, first):
    # 3 workers cut 7 trials into chunks 0-1, 2-3 and 4-6
    earned = harness.run_trial(FAILING, first)[0].alg_metric
    _fail_at(monkeypatch, failing, _beaten_optimum)
    expected = _serial_error(monkeypatch)
    assert isinstance(expected, ValidationError) and f"reached {earned!r}," in str(expected)
    monkeypatch.setattr(harness, "_WORKERS", 3)
    with pytest.raises(ValidationError) as parallel:
        run_experiment(FAILING)
    assert type(parallel.value) is type(expected) and str(parallel.value) == str(expected)
    assert_no_child_left()


def test_a_child_error_gives_the_serial_cli_error_line(monkeypatch):
    _fail_at(monkeypatch, (5,), _beaten_optimum)
    argv = ["game", "run", "--game", "resource", "--instance", "random:resource",
            "--seed", "11", "--trials", "7", "--json"]
    monkeypatch.setattr(harness, "_WORKERS", 1)
    serial = _main(argv)
    monkeypatch.setattr(harness, "_WORKERS", 3)
    parallel = _main(argv)
    assert parallel == serial
    assert serial[0] == 1 and serial[2].startswith("error: ") and "beyond the exact" in serial[2]
    assert_no_child_left()


def test_a_child_killed_by_a_signal_raises_and_names_its_chunk(monkeypatch):
    _fail_at(monkeypatch, (5,), lambda inst: os.kill(os.getpid(), signal.SIGKILL))
    monkeypatch.setattr(harness, "_WORKERS", 3)
    with pytest.raises(RuntimeError, match=r"chunk 2 \(trials 4-6\) left no result; "
                                           rf"wait status {int(signal.SIGKILL)}"):
        run_experiment(FAILING)
    assert_no_child_left()


def test_an_interrupt_in_the_parent_kills_and_reaps_every_child(monkeypatch):
    parent = os.getpid()

    def interrupt(inst):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        signal.pause()          # a child would wait forever unless killed

    _fail_at(monkeypatch, (1, 2, 5), interrupt)
    monkeypatch.setattr(harness, "_WORKERS", 3)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(FAILING)
    assert_no_child_left()


# ---------------------------------------------------------------------------
# serial fallbacks


@contextlib.contextmanager
def _profiled():
    sys.setprofile(lambda *_: None)
    try:
        yield
    finally:
        sys.setprofile(None)


@contextlib.contextmanager
def _other_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.mark.parametrize("case", ["one trial", "profiler", "thread", "fork fails", "forks"])
def test_the_run_stays_serial_where_forking_is_unsafe_or_fails(monkeypatch, case):
    # "forks" is the control: with nothing unsafe, the spy sees the one fork
    config = ExperimentConfig(game="resource", instance="random:resource",
                              mechanism=MechanismSpec(mech="treesum"), seed=3,
                              trials=1 if case == "one trial" else 4)
    monkeypatch.setattr(harness, "_WORKERS", 1)
    expected = results_to_csv(run_experiment(config)[0])
    forks = []

    def fork():
        forks.append(case)
        if case == "fork fails":
            raise OSError("no fork")
        return real_fork()

    real_fork = os.fork
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(harness, "_WORKERS", 2)
    guard = {"profiler": _profiled, "thread": _other_thread}.get(case, contextlib.nullcontext)
    with guard():
        got = results_to_csv(run_experiment(config)[0])
    assert got == expected
    assert forks == ([case] if case in ("fork fails", "forks") else [])
    assert_no_child_left()


@given(trials=st.integers(1, 500), workers=st.integers(1, 64))
def test_chunks_cover_every_trial_once_in_order(trials, workers):
    chunks = harness._chunks(trials, min(workers, trials))
    assert len(chunks) == min(workers, trials)
    assert [t for chunk in chunks for t in chunk] == list(range(trials))
    sizes = [len(chunk) for chunk in chunks]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
