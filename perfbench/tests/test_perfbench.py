"""Tests of the benchmark itself: every output check can fail, exact counts
repeat, the shims come off, and the result line keeps its contract.

Run from the root of a checkout: ``python3 -m pytest -q perfbench/tests``.
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import speed
import tracing
import workloads
from contcount import counters, harness, noise
from contcount.counters import AccuracyEnvelope

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FAST_SCENARIOS = ("lemma:future-lb", "lemma:scheduling-undom", "lemma:cost-sharing-perfect",
                  "thm:noinfo")


@pytest.fixture(scope="module")
def short_stream():
    stream = workloads.CounterStream(seed=3, steps=512, check_prefix=256)
    return stream, stream._stream()


# ---------------------------------------------------------------------------
# counter-stream checks


def test_tree_chain_releases_pass(short_stream):
    stream, run = short_stream
    assert checks.check_tree_chain(stream.true_sums, run["releases"]["tree_chain"],
                                   run["envelope"]) == []


def _counts(steps=40, m=3):
    updates = np.zeros((steps, m))
    updates[np.arange(steps), np.arange(steps) % m] = 1.0
    return np.cumsum(updates, axis=0)


WIDE = AccuracyEnvelope(1.0, 100.0)


def _set(index, value):
    return lambda y: y.__setitem__(index, value)


@pytest.mark.parametrize("start_from, edit, envelope, reason", [
    ("true", lambda y: y.__setitem__((-1, 1), y[-1, 1] + 1), WIDE, "exceeds the true count"),
    ("zero", _set((slice(20, None), 1), 0.5), WIDE, "not integral"),
    ("zero", _set((slice(30, None), 2), 2.0), WIDE, "other than 0 or 1"),
    ("zero", _set((slice(5, 10), 0), 1.0), WIDE, "other than 0 or 1"),
    ("zero", _set(0, 0.0), AccuracyEnvelope(1.0, 2.0), "outside the declared envelope"),
    ("zero", _set(0, 0.0), AccuracyEnvelope(1.0, 100.0, 0.1), "gamma"),
], ids=["above-true-count", "not-integral", "step-of-two", "step-down", "outside-envelope",
        "nonzero-gamma"])
def test_tree_chain_check_fails_on_wrong_releases(start_from, edit, envelope, reason):
    x = _counts()
    y = x.copy() if start_from == "true" else np.zeros_like(x)
    assert checks.check_tree_chain(x, y, WIDE) == []
    edit(y)
    problems = checks.check_tree_chain(x, y, envelope)
    assert any(reason in p for p in problems), problems


def test_rebuilt_and_noiseless_chains_match(short_stream):
    stream, run = short_stream
    assert stream._check_builds(run) == {chain: [] for chain in stream.CHAINS}


def test_noiseless_models_are_specific(short_stream):
    stream, _ = short_stream
    prefix = stream.updates[:256]
    spec = stream.CHAINS["ftsum"]
    mech = stream._build(dataclasses.replace(spec, zero_noise=True))
    got = [mech.update(a) for a in prefix]
    assert checks.check_identical(checks.zero_noise_ftsum(prefix, stream.steps, spec), got,
                                  "ftsum") == []
    assert checks.check_identical(checks.zero_noise_treesum(prefix), got, "ftsum") != []
    one_ulp = np.array(got)
    one_ulp[-1, 0] = np.nextafter(one_ulp[-1, 0], np.inf)
    assert checks.check_identical(got, one_ulp, "ftsum") != []


# ---------------------------------------------------------------------------
# resource-trials and reproduce-suite checks


@pytest.fixture(scope="module")
def game_run(tmp_path_factory):
    trials = workloads.ResourceTrials(seed=5, out_dir=tmp_path_factory.mktemp("out"))
    rc, stdout, *_ = workloads._call_cli(trials._argv(0))
    return trials, rc, stdout, Path(trials.csv_path).read_text(encoding="utf-8")


def _check(trials, rc, stdout, csv_text, tmp_path):
    path = tmp_path / "run.csv"
    path.write_text(csv_text, encoding="utf-8")
    return checks.check_game_run(rc, stdout, str(path), trials.TRIALS, trials.RATIO_BOUND)


def test_game_run_passes(game_run, tmp_path):
    assert _check(*game_run, tmp_path) == []
    assert workloads.ResourceTrials.RATIO_BOUND == pytest.approx(90.0)


def _edit_summary(stdout, **changes):
    return json.dumps({**json.loads(stdout), **changes})


def _edit_csv(csv_text, column, value):
    header, row = csv_text.splitlines()[:2]
    cells = row.split(",")
    cells[header.split(",").index(column)] = value
    return f"{header}\n{','.join(cells)}\n"


@pytest.mark.parametrize("mutate", [
    lambda rc, out, csv: (1, out, csv),
    lambda rc, out, csv: (rc, "", csv),
    lambda rc, out, csv: (rc, _edit_summary(out, trials=0), csv),
    lambda rc, out, csv: (rc, _edit_summary(out, envelope_pass_rate=0.0), csv),
    lambda rc, out, csv: (rc, _edit_summary(out, max_ratio=91.0), csv),
    lambda rc, out, csv: (rc, out, csv.splitlines()[0] + "\n"),
    lambda rc, out, csv: (rc, out, _edit_csv(csv, "ratio", "1.5")),
], ids=["exit-code", "no-json", "one-trial-too-few", "envelope-miss", "ratio-above-bound",
        "csv-row-missing", "csv-ratio-differs"])
def test_game_run_check_fails_on_wrong_output(game_run, tmp_path, mutate):
    trials, rc, stdout, csv_text = game_run
    assert _check(trials, *mutate(rc, stdout, csv_text), tmp_path) != []


def test_scenario_check():
    rc, stdout, *_ = workloads._call_cli(["reproduce", "thm:noinfo", "--json"])
    assert checks.check_scenario(rc, stdout, "thm:noinfo") == []
    failed = _edit_summary(stdout, passed=False)
    assert checks.check_scenario(rc, failed, "thm:noinfo") != []
    assert checks.check_scenario(2, stdout, "thm:noinfo") != []
    assert checks.check_scenario(rc, stdout, "thm:noinfospecial") != []


# ---------------------------------------------------------------------------
# tracing


def _small_workloads(tmp_path):
    return (workloads.CounterStream(seed=2, steps=256, check_prefix=64),
            workloads.ResourceTrials(seed=2, out_dir=tmp_path, unit_calls=3),
            workloads.ReproduceSuite(seed=2, names=FAST_SCENARIOS))


def _traced(workload):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        outcome = workload.unit()
    return tracing.layer_metrics(tracer, 1), outcome


EXACT_COUNTS = ("noise.laplace.calls", "counters.validate_per_update", "optimal.evaluations")


def test_exact_counts_repeat_and_tracing_keeps_outputs(tmp_path):
    counts = []
    for workload in _small_workloads(tmp_path):
        untraced = workload.unit()
        first, traced = _traced(workload)
        second, _ = _traced(workload)
        assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}
        assert traced.digest == untraced.digest
        assert untraced.failed == traced.failed == 0
        counts.append(first)
    assert counts[0]["noise.laplace.calls"] > 0
    assert counts[0]["counters.validate_per_update"] == pytest.approx(7 / 3)
    assert counts[1]["counters.validate_per_update"] == 4
    assert counts[2]["optimal.evaluations"] > 0


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    outer = tracer.open("harness.outer")
    inner = tracer.open("counters.inner")
    tracer.close(inner)
    tracer.close(outer)
    _, parent, dur, self_ns = tracer.spans()
    assert list(parent) == [-1, 0]
    assert self_ns[0] == dur[0] - dur[1]
    assert self_ns[1] == dur[1]


def test_shims_come_off():
    before = (noise.laplace, counters.laplace, counters.CounterMechanism.update,
              harness.MechanismSpec.build, dict(harness._ENGINES))
    with tracing.installed(tracing.Tracer()):
        assert counters.laplace is not before[1]
        assert harness._ENGINES["resource"][0] is not before[4]["resource"][0]
    after = (noise.laplace, counters.laplace, counters.CounterMechanism.update,
             harness.MechanismSpec.build, dict(harness._ENGINES))
    assert after == before


def test_per_layer_metrics_are_the_declared_ones(tmp_path):
    produced = set(_traced(_small_workloads(tmp_path)[0])[0])
    produced.add("trace.overhead_frac")
    produced.update(f"counters.step.{c}.p{q}_us" for c in workloads.CounterStream.CHAINS
                    for q in (50, 99))
    produced.update(f"harness.scenario.{workloads.scenario_metric(name)}.s"
                    for name, _ in harness.list_scenarios())
    assert produced == {m["name"] for m in SPEC["per_layer"]}


# ---------------------------------------------------------------------------
# the command


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_result_line_contract():
    done = _run(ROOT, "--workload", "resource-trials", "--seed", "7", "--seconds", "1",
                "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "counter-stream", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_speed_scale_drops_kernel_runs_and_uses_nearby_samples():
    ms = 1_000_000
    meter = speed.Speedometer()
    meter.starts = [0, 40 * ms, 80 * ms, 1000 * ms, 1040 * ms, 1080 * ms]
    meter.times = [speed.REF_NS] * 3 + [2 * speed.REF_NS] * 3
    raw, scaled = meter.scale([39 * ms, 1030 * ms], [45 * ms, 1045 * ms])
    assert list(raw) == [6 * ms - speed.REF_NS, 15 * ms - 2 * speed.REF_NS]
    assert list(scaled) == [raw[0], raw[1] / 2]


def test_speedometer_samples_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer(every_s=0.01) as meter:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(meter.starts) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
