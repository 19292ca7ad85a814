"""Seed-0 output check: every registered scenario's ``reproduce --json``
report, byte for byte, against the committed ``data/reproduce_seed0.json``.

A change that is meant to move an output regenerates the file and names the
change; the diff of the file then shows each value before and after:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

from contcount import cli, harness

GOLDEN = pathlib.Path(__file__).parent / "data" / "reproduce_seed0.json"


def reproduce_seed0() -> str:
    """The ``reproduce <name> --seed 0 --json`` line of every scenario, each
    parsed and laid out one value per line (floats keep their exact repr)."""
    reports = {}
    for name, _ in harness.list_scenarios():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["reproduce", name, "--seed", "0", "--json"])
        reports[name] = json.loads(out.getvalue())
    return json.dumps(reports, indent=1, sort_keys=True) + "\n"


def test_reproduce_seed0_matches_golden():
    assert reproduce_seed0() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(reproduce_seed0(), encoding="utf-8")
