"""Output checks against committed golden files, byte for byte.

* ``data/reproduce_seed0.json``: every registered scenario's
  ``reproduce --seed 0 --json`` report.
* ``data/cli_golden.json``: the CSV bytes and the printed lines of the
  commands the benchmark runs: ``game run`` at the ``resource-trials``
  arguments (seeds 0, 1 and 2) and ``counter run`` through ``treesum``,
  ``ftsum`` and ``treesum`` behind ``clamp``, ``under`` and ``mono``, on a
  fixed skewed stream.

A change that is meant to move an output regenerates the files and names the
change; the diff of the files then shows each value before and after:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import tempfile

from contcount import cli, harness

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "reproduce_seed0.json"
CLI_GOLDEN = DATA / "cli_golden.json"

GAME_RUN = ("game", "run", "--game", "resource", "--instance", "random:resource",
            "--inst", "n_max=200", "--inst", "m_max=10", "--mech", "treesum", "--eps", "2",
            "--wrap", "clamp", "--wrap", "under", "--wrap", "mono",
            "--clamp-alpha", "1.5", "--clamp-beta", "3", "--json", "--trials", "1")
STREAM_STEPS, STREAM_DIM = 200, 3
COUNTER_RUNS = {
    "treesum": ("--mech", "treesum", "--eps", "1", "--seed", "1"),
    # a large eps hands coordinate 0 over to the embedded tree mid-stream
    "ftsum": ("--mech", "ftsum", "--eps", "16", "--alpha", "2", "--seed", "1"),
    "treesum,clamp,under,mono": ("--mech", "treesum", "--eps", "2", "--wrap", "clamp",
                                 "--wrap", "under", "--wrap", "mono", "--clamp-alpha", "1.5",
                                 "--clamp-beta", "3", "--seed", "1"),
}


def _main(argv) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    return out.getvalue().splitlines()


def reproduce_seed0() -> str:
    """The ``reproduce <name> --seed 0 --json`` line of every scenario, each
    parsed and laid out one value per line (floats keep their exact repr)."""
    reports = {}
    for name, _ in harness.list_scenarios():
        (line,) = _main(["reproduce", name, "--seed", "0", "--json"])
        reports[name] = json.loads(line)
    return json.dumps(reports, indent=1, sort_keys=True) + "\n"


def stream_text() -> str:
    """A fixed stream, skewed toward coordinate 0: one-hot steps, and on
    every seventh step a unit split evenly over all coordinates."""
    lines = []
    for t in range(STREAM_STEPS):
        if t % 7 == 6:
            row = [1.0 / STREAM_DIM] * STREAM_DIM
        else:
            row = [0.0] * STREAM_DIM
            row[int(STREAM_DIM * ((t * 0.6180339887) % 1.0) ** 2)] = 1.0
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
        stream = pathlib.Path(tmp) / "stream.txt"
        stream.write_text(stream_text(), encoding="utf-8")
        for name, flags in COUNTER_RUNS.items():
            outputs[f"counter run {name}"] = {"csv": _main(
                ("counter", "run", "--n", str(STREAM_STEPS), "--m", str(STREAM_DIM),
                 "--stream", str(stream)) + flags)}
    return json.dumps(outputs, indent=1, sort_keys=True) + "\n"


def test_reproduce_seed0_matches_golden():
    assert reproduce_seed0() == GOLDEN.read_text(encoding="utf-8")


def test_benchmarked_commands_match_golden():
    assert cli_outputs() == CLI_GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    GOLDEN.write_text(reproduce_seed0(), encoding="utf-8")
    CLI_GOLDEN.write_text(cli_outputs(), encoding="utf-8")
