"""Output checks against committed golden files, byte for byte.

* ``data/reproduce_seed0.json``: every registered scenario's
  ``reproduce --seed 0 --json`` report, with the trials run by 1, 2 and 3
  workers.
* ``data/cli_golden.json``: the CSV bytes and the printed lines of the
  commands the benchmark runs: ``game run`` at the ``resource-trials``
  arguments (seeds 0, 1 and 2) and ``counter run`` through ``treesum``,
  ``ftsum`` and ``treesum`` behind ``clamp``, ``under`` and ``mono``, on a
  fixed skewed stream, and that chain at the clamp's default target
  (alpha = 1) on a 32-wide stream, as the ``counter-stream`` workload runs
  it; at eps = 1 every release of that stream is 0, so the entry
  ``treesum,clamp,under,mono m=32 eps=1024`` runs it at eps = 1024, where
  227 of its 768 releases leave 0 and the chain's steps show. Beside them,
  ``game run --out --json`` over several trials of a ``paper:`` instance
  and of an instance file, with ``--splits 4`` and with ``--skip-opt`` (NaN
  ratios, printed as ``null``).

Every command with ``--out`` overwrites the same ``out.csv``, and each
``counter run`` is also written there and must match its printed CSV, so a
writer that left an earlier, longer output's tail behind would fail.

A change that is meant to move an output regenerates the files and names the
change; the diff of the files then shows each value before and after:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile

import pytest

from contcount import cli, harness

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "reproduce_seed0.json"
CLI_GOLDEN = DATA / "cli_golden.json"

GAME_RUN = ("game", "run", "--game", "resource", "--instance", "random:resource",
            "--inst", "n_max=200", "--inst", "m_max=10", "--mech", "treesum", "--eps", "2",
            "--wrap", "clamp", "--wrap", "under", "--wrap", "mono",
            "--clamp-alpha", "1.5", "--clamp-beta", "3", "--json", "--trials", "1")
GAME_RUNS = {
    "paper:noinfo": ("--game", "resource", "--instance", "paper:noinfo", "--n", "12",
                     "--mech", "treesum", "--trials", "4", "--seed", "1"),
    "instance file": ("--game", "scheduling", "--mech", "treesum", "--eps", "0.5",
                      "--trials", "3", "--seed", "2"),
    "splits 4": ("--game", "resource", "--instance", "random:resource", "--inst", "n_max=30",
                 "--inst", "m_max=4", "--mech", "treesum", "--splits", "4", "--trials", "3",
                 "--seed", "3"),
    "skip-opt": ("--game", "cut", "--instance", "random:cut", "--mech", "ftsum", "--eps", "4",
                 "--skip-opt", "--trials", "3", "--seed", "4"),
}
# the "instance file" run's instance: 4 jobs on 3 machines
SCHEDULING_TEXT = "4 3\n3.0 1.5 2.0\n1.0 2.5 0.5\n2.0 2.0 4.0\n0.5 3.0 1.0\n"
STREAM_STEPS, STREAM_DIM = 200, 3
# name -> (stream steps, stream width, flags)
COUNTER_RUNS = {
    "treesum": (STREAM_STEPS, STREAM_DIM, ("--mech", "treesum", "--eps", "1", "--seed", "1")),
    # a large eps hands coordinate 0 over to the embedded tree mid-stream
    "ftsum": (STREAM_STEPS, STREAM_DIM,
              ("--mech", "ftsum", "--eps", "16", "--alpha", "2", "--seed", "1")),
    "treesum,clamp,under,mono": (STREAM_STEPS, STREAM_DIM,
                                 ("--mech", "treesum", "--eps", "2", "--wrap", "clamp",
                                  "--wrap", "under", "--wrap", "mono", "--clamp-alpha", "1.5",
                                  "--clamp-beta", "3", "--seed", "1")),
    # the clamp keeps the tree's own envelope (alpha = 1); updates wider than
    # validate_update's narrow path
    "treesum,clamp,under,mono m=32": (24, 32, ("--mech", "treesum", "--eps", "1", "--wrap",
                                               "clamp", "--wrap", "under", "--wrap", "mono",
                                               "--seed", "1")),
    # at eps = 1 the tree's beta keeps every release of that stream at 0; at
    # eps = 1024 the largest true count, 3.09, clears the shift on some steps
    "treesum,clamp,under,mono m=32 eps=1024": (24, 32, ("--mech", "treesum", "--eps", "1024",
                                                        "--wrap", "clamp", "--wrap", "under",
                                                        "--wrap", "mono", "--seed", "1")),
}


def _main(argv) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    assert (code, err.getvalue()) == (0, ""), f"{argv}: exit {code}, stderr {err.getvalue()!r}"
    return out.getvalue().splitlines()


def reproduce_seed0() -> str:
    """The ``reproduce <name> --seed 0 --json`` line of every scenario, each
    parsed and laid out one value per line (floats keep their exact repr)."""
    reports = {}
    for name, _ in harness.list_scenarios():
        (line,) = _main(["reproduce", name, "--seed", "0", "--json"])
        reports[name] = json.loads(line)
    return json.dumps(reports, indent=1, sort_keys=True) + "\n"


def stream_text(steps: int = STREAM_STEPS, dim: int = STREAM_DIM) -> str:
    """A fixed stream, skewed toward coordinate 0: one-hot steps, and on
    every seventh step a unit split evenly over all coordinates."""
    lines = []
    for t in range(steps):
        if t % 7 == 6:
            row = [1.0 / dim] * dim
        else:
            row = [0.0] * dim
            row[int(dim * ((t * 0.6180339887) % 1.0) ** 2)] = 1.0
        lines.append(" ".join(repr(v) for v in row))
    return "\n".join(lines) + "\n"


def cli_outputs() -> str:
    """Printed lines and CSV lines of every command above, one per line."""
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        csv = pathlib.Path(tmp) / "out.csv"
        for seed in (0, 1, 2):
            stdout = _main(GAME_RUN + ("--seed", str(seed), "--out", str(csv)))
            outputs[f"game run seed {seed}"] = {
                "stdout": stdout, "csv": csv.read_text(encoding="utf-8").splitlines()}
        instance = pathlib.Path(tmp) / "instance.txt"
        instance.write_text(SCHEDULING_TEXT, encoding="utf-8")
        for name, flags in GAME_RUNS.items():
            if name == "instance file":
                flags += ("--instance", str(instance))
            stdout = _main(("game", "run") + flags + ("--json", "--out", str(csv)))
            outputs[f"game run {name}"] = {
                "stdout": stdout, "csv": csv.read_text(encoding="utf-8").splitlines()}
        stream = pathlib.Path(tmp) / "stream.txt"
        for name, (steps, dim, flags) in COUNTER_RUNS.items():
            stream.write_text(stream_text(steps, dim), encoding="utf-8")
            argv = ("counter", "run", "--n", str(steps), "--m", str(dim),
                    "--stream", str(stream)) + flags
            outputs[f"counter run {name}"] = {"csv": _main(argv)}
            _main(argv + ("--out", str(csv)))
            assert csv.read_text(encoding="utf-8").splitlines() == \
                outputs[f"counter run {name}"]["csv"], f"counter run {name} --out"
    return json.dumps(outputs, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_reproduce_seed0_matches_golden(monkeypatch, workers):
    monkeypatch.setattr(harness, "_WORKERS", workers)
    assert reproduce_seed0() == GOLDEN.read_text(encoding="utf-8")
    with pytest.raises(ChildProcessError):  # no child outlived its run
        os.waitpid(-1, os.WNOHANG)


def test_benchmarked_commands_match_golden():
    assert cli_outputs() == CLI_GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    GOLDEN.write_text(reproduce_seed0(), encoding="utf-8")
    CLI_GOLDEN.write_text(cli_outputs(), encoding="utf-8")
