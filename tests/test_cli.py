import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import numpy as np

from contcount import cli, harness, instances
from contcount.games import GAMES, RESOURCE, play
from contcount.noise import RandomSource
from contcount.strategies import Greedy


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_counter_run_csv(tmp_path, capsys):
    stream = tmp_path / "stream.txt"
    stream.write_text("# three unit updates\n1\n1\n1\n")
    code, out, err = run_cli(capsys, "counter", "run", "--mech", "treesum",
                             "--n", "8", "--m", "1", "--zero-noise",
                             "--stream", str(stream))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,coord,true_x,released_y,in_envelope"
    assert lines[1] == "1,0,1.0,1.0,1"
    assert lines[3] == "3,0,3.0,3.0,1"


def test_counter_run_huge_horizon(tmp_path, capsys):
    stream = tmp_path / "stream.txt"
    stream.write_text("1\n0\n1\n")
    code, out, err = run_cli(capsys, "counter", "run", "--mech", "treesum",
                             "--n", "1000000000000", "--m", "1",
                             "--stream", str(stream))
    assert code == 0, err
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["1", "0", "1.0"], ["2", "0", "1.0"], ["3", "0", "2.0"]]


@pytest.mark.parametrize("game, instance", [("scheduling", "random:scheduling"),
                                            ("cut", "random:cut")])
def test_monotone_wrapper_refused_on_games_with_larger_update_bounds(capsys, game, instance):
    code, out, err = run_cli(capsys, "game", "run", "--game", game, "--instance", instance,
                             "--mech", "perfect", "--wrap", "mono", "--trials", "20", "--json")
    assert (code, out) == (1, "")
    assert err.startswith("error: MonotoneWrapper") and "update bound <= 1" in err


def test_counter_run_validation_error(tmp_path, capsys):
    stream = tmp_path / "stream.txt"
    stream.write_text("1\n")
    code, out, err = run_cli(capsys, "counter", "run", "--mech", "treesum",
                             "--n", "0", "--m", "1", "--stream", str(stream))
    assert code == 1
    assert "n must be >= 1" in err


@pytest.mark.parametrize("mech", ["perfect", "treesum", "ftsum", "empty"])
@pytest.mark.parametrize("n, m", [("0", "1"), ("3", "0")])
def test_counter_run_shape_error_is_the_mechanisms(tmp_path, capsys, mech, n, m):
    stream = tmp_path / "stream.txt"
    stream.write_text("1\n")
    code, out, err = run_cli(capsys, "counter", "run", "--mech", mech,
                             "--n", n, "--m", m, "--stream", str(stream))
    assert code == 1 and out == ""
    assert f"n must be >= 1 and m must be >= 1, got n={n}, m={m}" in err


def test_counter_run_refuses_a_stream_past_the_horizon(tmp_path, capsys):
    stream = tmp_path / "stream.txt"
    stream.write_text("1\n0\n1\n")
    code, out, err = run_cli(capsys, "counter", "run", "--n", "2", "--m", "1",
                             "--stream", str(stream))
    assert code == 1 and out == ""
    assert err == "error: stream has 3 steps but horizon is 2\n"


def test_counter_run_wrapped(tmp_path, capsys):
    stream = tmp_path / "stream.txt"
    stream.write_text("1\n1\n")
    code, out, _ = run_cli(capsys, "counter", "run", "--mech", "perfect",
                           "--wrap", "clamp", "--wrap", "under", "--wrap", "mono",
                           "--n", "4", "--m", "1", "--stream", str(stream))
    assert code == 0


def test_game_run_json(capsys):
    code, out, _ = run_cli(capsys, "game", "run", "--game", "resource",
                           "--instance", "paper:sec1.1", "--mech", "empty",
                           "--json")
    assert code == 0
    summary = json.loads(out)
    assert summary["trials"] == 1
    assert summary["mechanism"] == "empty"


def test_game_run_with_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("game = resource\ninstance = paper:noinfo\nmech = empty\n"
                   "strategy = scripted:fear-a-twin\ninst.n = 5\n")
    out_csv = tmp_path / "trials.csv"
    code, out, _ = run_cli(capsys, "game", "run", "--config", str(cfg),
                           "--out", str(out_csv))
    assert code == 0
    assert out_csv.exists()
    assert "mean_ratio" in out


def test_game_run_splits_plays_fractional_resource_sharing(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, "game", "run", "--game", "resource", "--instance",
                           "random:resource", "--mech", "treesum", "--eps", "2", "--splits", "4",
                           "--seed", "3", "--out", str(csv), "--json")
    assert code == 0 and not err
    (row,) = harness.read_csv_results(str(csv))
    config = harness.ExperimentConfig(game="resource", instance="random:resource", seed=3,
                                      mechanism=harness.MechanismSpec(mech="treesum", eps=2.0),
                                      splits=4)
    rng, inst = harness._trial_instance(config, 0)
    mech = config.mechanism.build(inst.n, inst.m, rng.substream(1), RESOURCE.bound(inst))
    trace = play(RESOURCE, inst, mech, Greedy(), splits=4)
    assert (row.sw, row.psw, row.alg_metric) == (
        trace.social_welfare, trace.perceived_welfare, trace.metric)
    assert np.array_equal(row.final_counts, trace.final_usage)
    # fractional investments leave non-integral usage somewhere
    assert not np.array_equal(trace.final_usage, np.round(trace.final_usage))


def test_game_run_missing_instance(capsys):
    code, _, err = run_cli(capsys, "game", "run", "--game", "resource")
    assert code == 1
    assert "instance" in err


def test_game_run_missing_game(capsys):
    code, out, err = run_cli(capsys, "game", "run", "--instance", "paper:noinfo")
    assert code == 1 and out == ""
    assert err == "error: --game (or a config file providing it) is required\n"


@pytest.mark.parametrize("n", ["0", "1"])
def test_cut_cycle_needs_two_nodes_a_side(capsys, n):
    code, out, err = run_cli(capsys, "game", "run", "--game", "cut", "--instance",
                             "paper:cut-cycle", "--n", n)
    assert code == 1 and out == ""
    assert err.startswith("error:")
    assert f"cut-cycle needs n >= 2 (a cycle of at least 4 nodes), got n={n}" in err


def test_opt_command(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("2 2\n1.0 0.5\n0.8 0.8\n0 1\n0 1\n")
    code, out, _ = run_cli(capsys, "opt", "--game", "resource", "--instance", str(inst))
    assert code == 0
    assert "value = 1.8" in out
    assert "method = matching" in out


def test_opt_future_with_repeated_action_entries(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("8 2\n4 4 4 3 2 2 2 2\n3 2 1 1 1 1 1 1\n" + "0 1 0 1 0 1 0 1\n" * 8)
    code, out, _ = run_cli(capsys, "opt", "--game", "future", "--instance", str(inst))
    assert code == 0
    assert out.splitlines()[0] == "value = 17.0"


@pytest.mark.parametrize("game, text", [("resource", "1 2\n1.0\n1.0\n0 1.0\n"),
                                        ("costshare", "1 2\n1.5 2.5\n0.5\n")])
def test_opt_non_integer_action_entry_exits_one(tmp_path, capsys, game, text):
    inst = tmp_path / "inst.txt"
    inst.write_text(text)
    code, out, err = run_cli(capsys, "opt", "--game", game, "--instance", str(inst))
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_opt_malformed_cut_file(tmp_path, capsys):
    inst = tmp_path / "graph.txt"
    inst.write_text("3\n0 1 2\n")
    code, _, err = run_cli(capsys, "opt", "--game", "cut", "--instance", str(inst))
    assert code == 1
    assert err.startswith("error:")


def test_opt_instance_with_extra_lines(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("2 1\n1.0 0.5\n0\n0\n0\n")
    code, out, err = run_cli(capsys, "opt", "--game", "resource", "--instance", str(inst))
    assert code == 1 and out == ""
    assert err.startswith("error: malformed resource-sharing instance")


@pytest.mark.parametrize("command", [["game", "run"], ["opt"]])
@pytest.mark.parametrize("game, text", [("resource", "0 1\n1.0\n"), ("cut", "0\n"),
                                        ("costshare", "0 2\n1.5 2.5\n")])
def test_instance_file_without_players_exits_one(tmp_path, capsys, command, game, text):
    inst = tmp_path / "inst.txt"
    inst.write_text(text)
    code, out, err = run_cli(capsys, *command, "--game", game, "--instance", str(inst))
    assert code == 1 and out == ""
    assert err == "error: need at least one player\n"


@pytest.mark.parametrize("game, instance", [
    ("resource", "random:resource"), ("cut", "random:cut"), ("future", "random:future"),
    ("scheduling", "paper:sched2x2")])
@pytest.mark.parametrize("seed", ["0", "3"])
def test_opt_solves_the_instance_trial_0_of_game_run_plays(capsys, game, instance, seed):
    code, out, _ = run_cli(capsys, "opt", "--game", game, "--instance", instance, "--seed", seed)
    assert code == 0
    code, csv, _ = run_cli(capsys, "game", "run", "--game", game, "--instance", instance,
                           "--seed", seed)
    assert code == 0
    header, trial0 = csv.splitlines()[:2]
    opt = trial0.split(",")[header.split(",").index("opt")]
    assert out.splitlines()[0] == f"value = {opt}"


@pytest.mark.parametrize("flags", [
    ["--game", "resource", "--instance", "random:resource", "--inst", "n_max=200",
     "--inst", "m_max=10"],
    ["--game", "cut", "--instance", "random:cut", "--inst", "n_max=6", "--inst", "p=0.5"],
    ["--game", "resource", "--instance", "paper:noinfo", "--n", "5", "--inst", "high=7.5"],
    ["--game", "costshare", "--instance", "paper:costshare-public-private", "--n", "4"]])
@pytest.mark.parametrize("seed", ["0", "5"])
def test_opt_takes_the_instance_parameters_of_game_run(capsys, flags, seed):
    code, out, _ = run_cli(capsys, "opt", *flags, "--seed", seed)
    assert code == 0
    code, csv, _ = run_cli(capsys, "game", "run", *flags, "--trials", "1", "--seed", seed)
    assert code == 0
    header, trial0 = csv.splitlines()[:2]
    opt = trial0.split(",")[header.split(",").index("opt")]
    assert out.splitlines()[0] == f"value = {opt}"


@pytest.mark.parametrize("argv, message", [
    (["resource", "random:resource", "--inst", "n_max=1"], "n_max must be finite and >= 2, got 1"),
    (["resource", "random:resource", "--inst", "bogus=1"], "bogus"),
    (["resource", "random:resource", "--inst", "high"], "--inst expects KEY=VALUE, got 'high'"),
    (["cut", "paper:cut-cycle", "--n", "1"], "cut-cycle needs n >= 2")])
def test_opt_bad_instance_parameters_exit_one(capsys, argv, message):
    game, instance, *flags = argv
    code, out, err = run_cli(capsys, "opt", "--game", game, "--instance", instance, *flags)
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("name", ["random", "paper"])
def test_opt_file_named_like_a_prefix(tmp_path, capsys, monkeypatch, name):
    (tmp_path / name).write_text("2 2\n1.0 0.5\n0.8 0.8\n0 1\n0 1\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "opt", "--game", "resource", "--instance", name)
    assert code == 0
    assert "value = 1.8" in out


@pytest.mark.parametrize("argv, message", [
    (["--instance", "paper:noinfo", "--strategy", "belief:abc"], "belief offset"),
    (["--instance", "paper:noinfo", "--inst", "bogus=1"], "bogus"),
    (["--instance", "random:resource", "--inst", "n_max=1"], "bad parameters"),
    (["--instance", "random:resource", "--inst", "n_max=abc"], "n_max"),
    (["--instance", "no-such-dir/inst.txt"], "cannot read instance file"),
    (["--instance", "paper:noinfo", "--strategy", "belief:inf"], "must be finite"),
    (["--instance", "paper:noinfo", "--strategy", "belief:nan"], "must be finite"),
    (["--instance", "paper:noinfo", "--mech", "ftsum", "--gamma", "1"],
     "gamma must lie in (0, 1)"),
    (["--instance", "paper:noinfo", "--mech", "ftsum", "--alpha", "inf"],
     "alpha must be finite"),
    (["--instance", "paper:noinfo", "--mech", "treesum", "--wrap", "clamp",
      "--clamp-alpha", "inf"], "alpha must be finite"),
    (["--instance", "paper:noinfo", "--mech", "treesum", "--wrap", "clamp",
      "--clamp-beta", "inf"], "beta must be finite"),
    (["--instance", "paper:noinfo", "--mech", "treesum", "--gamma", "0"],
     "gamma must lie in (0, 1)"),
    (["--instance", "paper:noinfo", "--mech", "treesum", "--eps", "0"],
     "epsilon must be positive"),
    (["--instance", "paper:noinfo", "--mech", "treesum", "--wrap", "clamp",
      "--clamp-alpha", "0"], "alpha must be finite and >= 1"),
    (["--instance", "paper:noinfo", "--inst", "high"], "--inst expects KEY=VALUE, got 'high'"),
])
def test_game_run_bad_parameters(capsys, argv, message):
    code, _, err = run_cli(capsys, "game", "run", "--game", "resource", *argv)
    assert code == 1
    assert err.startswith("error:")
    assert message in err


def test_game_run_has_no_tree_constant_flag(capsys):
    code, out, err = run_cli(capsys, "game", "run", "--game", "resource",
                             "--instance", "paper:noinfo", "--mech", "treesum", "--ctree", "1")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --ctree 1" in err


@pytest.mark.parametrize("game, instance, item, message", [
    ("cut", "random:cut", "p=nan", "edge probability p must lie in [0, 1], got nan"),
    ("cut", "random:cut", "p=-1", "edge probability p must lie in [0, 1], got -1"),
    ("cut", "random:cut", "p=2", "edge probability p must lie in [0, 1], got 2"),
    ("cut", "random:cut", "n_max=2", "n_max must be finite and >= 3, got 2"),
    ("resource", "random:resource", "m_max=1", "m_max must be finite and >= 2, got 1"),
    ("resource", "random:resource", "n_max=nan", "n_max must be finite and >= 2, got nan"),
    ("resource", "random:resource", "m_max=inf", "m_max must be finite and >= 2, got inf"),
    ("resource", "random:market", "n_max=3", "n_max must be finite and >= 4, got 3"),
    ("future", "random:future", "m_max=1", "m_max must be finite and >= 2, got 1"),
    ("scheduling", "random:scheduling", "m_max=1", "m_max must be finite and >= 2, got 1"),
    ("costshare", "random:costshare", "n_max=0", "n_max must be finite and >= 2, got 0"),
    ("resource", "random:resource", "n_max=2.5", "n_max must be an integer, got 2.5"),
    ("resource", "random:resource", "n_max=1e9", "n_max = 1000000000.0 and m_max = 10 would draw"),
    ("cut", "random:cut", "n_max=1e9", "n_max = 1000000000.0 would draw"),
    ("future", "random:market", "value_lo=5", "value_lo = 5 lies above value_hi = 4.0")])
def test_random_generator_bad_parameters_exit_one(capsys, game, instance, item, message):
    code, out, err = run_cli(capsys, "game", "run", "--game", game, "--instance", instance,
                             "--inst", item)
    assert code == 1 and out == ""
    assert err.startswith("error: bad parameters") and message in err


@pytest.mark.parametrize("name", ["sec1.1", "noinfo", "noinfospecial", "marketundom"])
def test_quadratic_paper_instance_refuses_an_oversized_n(capsys, name):
    # each builds n + 1 curves of n values: 10^12 at n = 10^6
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "opt", "--game", "resource", "--instance", f"paper:{name}",
                             "--n", "1000000")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == (f"error: bad parameters {{'n': 1000000}} for 'paper:{name}': n = 1000000 "
                   "would build 1000001000000 values, over the budget of 8000000\n")


@pytest.mark.parametrize("argv", [["--n", "50"], ["--inst", "bogus=3"]])
def test_instance_file_takes_no_instance_parameters(tmp_path, capsys, argv):
    inst = tmp_path / "inst.txt"
    inst.write_text("2 2\n1.0 0.5\n0.8 0.8\n0 1\n0 1\n")
    code, out, err = run_cli(capsys, "game", "run", "--game", "resource", "--instance",
                             str(inst), *argv, "--json")
    assert code == 1 and out == ""
    assert err.startswith("error: instance parameters")


# default sizes of these generators exceed the future-dependent brute force
TOO_BIG_FOR_FUTURE = {"resource", "open-market"}
RANDOM_GAMES = [(name, game) for name, make in instances.RANDOM_GENERATORS.items()
                for game, rule in GAMES.items()
                if isinstance(make(RandomSource(0)), rule.instance_type)]


@pytest.mark.parametrize("name, game", RANDOM_GAMES,
                         ids=[f"{name}-{game}" for name, game in RANDOM_GAMES])
def test_game_run_solves_default_random_instances(capsys, name, game):
    code, out, err = run_cli(capsys, "game", "run", "--game", game, "--instance",
                             f"random:{name}", "--trials", "3", "--seed", "5", "--json")
    if name in TOO_BIG_FOR_FUTURE and game == "future":
        assert code == 1 and "exceeds the brute-force budget" in err
    else:
        assert code == 0, err
        assert json.loads(out)["min_ratio"] >= 1.0


# each game given an instance of another game's type
MISMATCHES = [("resource", "paper:costshare-public-private", "ResourceSharingInstance",
               "CostSharingInstance"),
              ("cut", "random:resource", "CutInstance", "ResourceSharingInstance"),
              ("scheduling", "random:cut", "SchedulingInstance", "CutInstance"),
              ("costshare", "paper:sched2x2", "CostSharingInstance", "SchedulingInstance")]


@pytest.mark.parametrize("command", [["game", "run"], ["opt"]])
@pytest.mark.parametrize("game, spec, wanted, given", MISMATCHES,
                         ids=[f"{game}-{spec}" for game, spec, _, _ in MISMATCHES])
def test_instance_of_the_wrong_type_exits_one(capsys, command, game, spec, wanted, given):
    code, out, err = run_cli(capsys, *command, "--game", game, "--instance", spec)
    assert code == 1 and out == ""
    assert err == f"error: the {game} game plays a {wanted}, not a {given}\n"


def test_counter_run_malformed_stream(tmp_path, capsys):
    stream = tmp_path / "stream.txt"
    stream.write_text("x\n")
    code, _, err = run_cli(capsys, "counter", "run", "--n", "4", "--m", "1",
                           "--stream", str(stream))
    assert code == 1
    assert err.startswith("error:")


def test_counter_run_nan_stream(tmp_path, capsys):
    stream = tmp_path / "stream.txt"
    stream.write_text("1\nnan\n")
    code, out, err = run_cli(capsys, "counter", "run", "--mech", "treesum",
                             "--n", "3", "--m", "1", "--stream", str(stream))
    assert code == 1
    assert err.startswith("error:")
    assert "finite" in err


@pytest.mark.parametrize("argv, message", [
    (["counter", "run", "--n", "4", "--m", "1", "--stream", "{missing}"],
     "cannot read stream file"),
    (["game", "run", "--game", "resource", "--instance", "paper:noinfo",
      "--config", "{missing}"], "cannot read config file"),
    (["game", "run", "--game", "resource", "--instance", "paper:noinfo",
      "--mech", "perfect", "--out", "{missing}/x.csv"], "cannot write CSV file"),
    (["counter", "run", "--n", "4", "--m", "1", "--stream", "{stream}",
      "--out", "{missing}/x.csv"], "cannot write CSV file"),
])
def test_missing_file_is_an_error(tmp_path, capsys, argv, message):
    stream = tmp_path / "stream.txt"
    stream.write_text("1\n")
    missing = str(tmp_path / "missing")
    argv = [a.format(missing=missing, stream=stream) for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert message in err and missing in err


def test_game_run_writes_its_csv_to_dev_null(capsys):
    """A device is written and never truncated."""
    code, out, err = run_cli(capsys, "game", "run", "--game", "resource", "--instance",
                             "paper:noinfo", "--mech", "perfect", "--out", os.devnull)
    assert (code, err) == (0, "")
    assert "mean_ratio" in out


@pytest.mark.parametrize("argv", [
    ["game", "run", "--game", "resource", "--instance", "paper:noinfo", "--mech", "perfect"],
    ["counter", "run", "--n", "4", "--m", "1", "--stream", "{stream}"],
])
def test_out_to_a_directory_is_an_error(tmp_path, capsys, argv):
    stream = tmp_path / "stream.txt"
    stream.write_text("1\n")
    argv = [a.format(stream=stream) for a in argv] + ["--out", str(tmp_path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write CSV file '{tmp_path}': ")


@pytest.mark.parametrize("argv, message", [
    (["counter", "run", "--n", "4", "--m", "1", "--stream", "{bad}"],
     "cannot read stream file"),
    (["game", "run", "--game", "resource", "--instance", "paper:noinfo",
      "--config", "{bad}"], "cannot read config file"),
    (["opt", "--game", "resource", "--instance", "{bad}"], "cannot read instance file"),
])
def test_non_utf8_file_is_an_error(tmp_path, capsys, argv, message):
    bad = tmp_path / "utf16.txt"
    bad.write_bytes(b"\xff\xfe\x001\n")
    code, _, err = run_cli(capsys, *[a.format(bad=bad) for a in argv])
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert message in err and "not UTF-8" in err


def test_reproduce_pass_and_fail(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "reproduce", "lemma:cut-cycle")
    assert code == 0
    assert "=> PASS" in out

    monkeypatch.setattr(harness, "_SCENARIOS", dict(harness._SCENARIOS))

    @harness._scenario("test:one-of-three", "every trial number is below 2")
    def one_of_three(trials=3):
        config = harness.ExperimentConfig(game="resource", instance="paper:noinfo",
                                          trials=trials)
        return config, (harness.Check("trial", lambda r, *_: r.trial, "<", 2.0),)

    code, out, _ = run_cli(capsys, "reproduce", "test:one-of-three", "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["checks"] == {
        "trial": {"value": 2.0, "bound": 2.0, "slack": 0.0, "violations": 1}}
    code, out, _ = run_cli(capsys, "reproduce", "test:one-of-three")
    assert code == 2
    assert "trial: 2 < 2, slack 0, violations 1/3" in out
    assert "=> FAIL" in out
    assert run_cli(capsys, "reproduce", "test:one-of-three", "--trials", "2")[0] == 0


def test_reproduce_greedy4(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "thm:greedy4", "--trials", "25")
    assert code == 0
    assert "=> PASS" in out


def test_reproduce_unknown(capsys):
    code, _, err = run_cli(capsys, "reproduce", "thm:unknown")
    assert code == 1
    assert err == "error: unknown scenario 'thm:unknown' (see list-scenarios)\n"
    code, _, err = run_cli(capsys, "game", "run", "--game", "resource", "--instance",
                           "paper:noinfo", "--strategy", "scripted:nope")
    assert code == 1
    assert err == ("error: unknown scripted strategy 'nope' (have: all-blue-cycle, fear-a-twin, "
                   "pessimistic-scheduler, private-set-beliefs)\n")


# scripted plays off the shapes and counters their constructions assume: a
# noisy counter, a single player with no twin, a market that only ties
OFF_CONSTRUCTION = [
    ("--game", "resource", "--instance", "paper:noinfo", "--strategy", "scripted:fear-a-twin",
     "--n", "12", "--mech", "treesum", "--json"),
    ("--game", "resource", "--instance", "paper:noinfo", "--strategy", "scripted:fear-a-twin",
     "--n", "1", "--mech", "empty", "--json"),
    ("--game", "future", "--instance", "paper:marketundom", "--strategy",
     "scripted:private-set-beliefs", "--inst", "eps=0", "--skip-opt", "--json"),
]


@pytest.mark.parametrize("argv", OFF_CONSTRUCTION, ids=["treesum", "n=1", "eps=0"])
def test_scripted_play_is_the_same_with_and_without_python_O(argv):
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    runs = [subprocess.run([sys.executable, *flags, "-m", "contcount.cli", "game", "run", *argv],
                           env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                           text=True, timeout=120)
            for flags in ([], ["-O"])]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, "")] * 2
    assert runs[0].stdout == runs[1].stdout


def test_unknown_flag_exits_one(capsys):
    code, _, err = run_cli(capsys, "list-scenarios", "--bogus")
    assert code == 1
    assert "usage" in err.lower()
    # --help still exits 0
    assert run_cli(capsys, "--help")[0] == 0


def test_reproduce_json(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "lemma:future-lb", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["checks"]["sw"]["value"] == 1.0


def test_list_scenarios(capsys):
    code, out, _ = run_cli(capsys, "list-scenarios")
    assert code == 0
    assert "thm:greedy4" in out
    assert "prop:private-beats-perfect" in out


def test_help_documents_every_flag():
    # no undocumented flags: each registered option string appears in the help
    run = cli.build_parser()
    # walk subparsers and check option strings show up in their own help text
    subparsers = [a for a in run._actions if hasattr(a, "choices") and a.choices]
    for action in subparsers:
        for name, subparser in action.choices.items():
            help_text = subparser.format_help()
            for act in subparser._actions:
                for opt in act.option_strings:
                    assert opt in help_text, f"{name}: {opt} missing from --help"
            nested = [a for a in subparser._actions if hasattr(a, "choices") and a.choices
                      and not isinstance(a.choices, (list, tuple))]
            for n_action in nested:
                if not hasattr(n_action.choices, "items"):
                    continue
                for _, nsub in n_action.choices.items():
                    if not hasattr(nsub, "format_help"):
                        continue
                    ntext = nsub.format_help()
                    for act in nsub._actions:
                        for opt in act.option_strings:
                            assert opt in ntext


@pytest.mark.parametrize("argv, message", [
    (["thm:polylog", "--trials", "0"], "trial count must be >= 1"),
    (["prop:private-beats-perfect", "--trials", "-2"], "trial count must be >= 1"),
    (["sec1.1:illustrative", "--trials", "3"],
     "scenario 'sec1.1:illustrative' takes no 'trials' parameter"),
])
def test_reproduce_bad_trials(capsys, argv, message):
    code, out, err = run_cli(capsys, "reproduce", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


def test_parser_is_built_once(capsys, monkeypatch):
    run_cli(capsys, "list-scenarios")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, out, _ = run_cli(capsys, "list-scenarios")
    assert code == 0 and "thm:greedy4" in out
    assert built == []
    # a fresh parser for callers that want their own
    cli.build_parser()
    assert built


def test_cached_parser_defaults_stay_empty(capsys):
    parser = cli._parser()
    wrapped = parser.parse_args(["game", "run", "--wrap", "clamp", "--inst", "n_max=5"])
    assert wrapped.wrap == ["clamp"] and wrapped.inst == ["n_max=5"]
    code, _, _ = run_cli(capsys, "game", "run", "--game", "resource",
                         "--instance", "paper:noinfo", "--wrap", "clamp", "--json")
    assert code == 0
    plain = parser.parse_args(["game", "run"])
    assert plain.wrap == [] and plain.inst == []


def write_config(tmp_path, text):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("game = resource\ninstance = paper:sec1.1\nmech = empty\n" + text)
    return str(cfg)


def test_config_comments_spacing_and_inst_keys(tmp_path):
    cfg = write_config(tmp_path, "# a comment\nstrategy=greedy  # trailing\n"
                                 "  trials   =   2  \ninst.n = 10\ninst.eps = 0.01\n"
                                 "zero_noise = no\nskip_opt = True\njson = 1\n")
    args = cli._parse_args(["game", "run", "--config", cfg])
    assert (args.game, args.instance, args.mech) == ("resource", "paper:sec1.1", "empty")
    assert args.strategy == "greedy" and args.trials == 2
    assert args.inst == ["n=10", "eps=0.01"]
    assert (args.zero_noise, args.skip_opt, args.json) == (False, True, True)


def test_command_line_flags_beat_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "trials = 3\nseed = 5\n")
    code, out, _ = run_cli(capsys, "game", "run", "--config", cfg,
                           "--trials", "1", "--seed", "0", "--json")
    assert code == 0
    summary = json.loads(out)
    assert summary["trials"] == 1 and summary["seed"] == 0


def test_command_line_wrap_replaces_config_list(tmp_path):
    cfg = write_config(tmp_path, "wrap = clamp, under\n")
    assert cli._parse_args(["game", "run", "--config", cfg]).wrap == ["clamp", "under"]
    args = cli._parse_args(["game", "run", "--config", cfg, "--wrap", "mono"])
    assert args.wrap == ["mono"]


def test_command_line_inst_beats_config_inst(tmp_path, capsys, monkeypatch):
    seen = []
    real = harness.run_experiment
    monkeypatch.setattr(harness, "run_experiment",
                        lambda config: seen.append(config.instance_params) or real(config))
    cfg = write_config(tmp_path, "inst.n = 5\ninst.eps = 0.01\n")
    for argv, n in (([], 5), (["--inst", "n=7"], 7), (["--n", "6"], 6),
                    (["--inst", "n=7", "--n", "6"], 6)):
        code, _, _ = run_cli(capsys, "game", "run", "--config", cfg, "--json", *argv)
        assert code == 0
        assert seen.pop() == {"n": n, "eps": 0.01}


@pytest.mark.parametrize("line, message", [
    ("trials = abc", "invalid int value: 'abc'"),
    ("splits = 2.5", "invalid int value: '2.5'"),
    ("mech = bogus", "invalid choice: 'bogus'"),
])
def test_bad_config_values_exit_one(tmp_path, capsys, line, message):
    code, out, err = run_cli(capsys, "game", "run", "--config", write_config(tmp_path, line))
    assert code == 1 and out == ""
    assert "error:" in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line, message", [
    ("bogus = 1", "unknown config key 'bogus'"),
    ("tri = 3", "unknown config key 'tri'"),
    ("config = other.cfg", "cannot name another config file"),
    ("fn = x", "unknown config key 'fn'"),
    ("command = opt", "unknown config key 'command'"),
    ("subcommand = run", "unknown config key 'subcommand'"),
    ("no equals sign", "config line without '='"),
    ("ctree = 1", "unknown config key 'ctree'"),
])
def test_bad_config_lines_exit_one(tmp_path, capsys, line, message):
    code, out, err = run_cli(capsys, "game", "run", "--config", write_config(tmp_path, line))
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


def _game_run_parser():
    def sub(parser, name):
        action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
        return action.choices[name]
    return sub(sub(cli.build_parser(), "game"), "run")


def _sample_value(action):
    if action.choices:
        return str(action.choices[-1])
    if action.type is int:
        return "3"
    if action.type is float:
        return "0.5"
    return "n_max=9" if action.dest == "inst" else "x.csv"


def test_every_game_run_option_is_a_config_key(tmp_path):
    options = [a for a in _game_run_parser()._actions
               if a.option_strings and a.dest not in ("help", "config")]
    assert len(options) >= 19
    for action in options:
        flag = action.option_strings[-1]
        key = flag[2:].replace("-", "_")
        if action.nargs == 0:
            config_value, argv = "yes", [flag]
        else:
            config_value = _sample_value(action)
            argv = [flag, config_value]
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key} = {config_value}\n")
        from_config = vars(cli._parse_args(["game", "run", "--config", str(cfg)]))
        from_flag = vars(cli._parse_args(["game", "run", *argv]))
        assert from_config.pop("config") == str(cfg) and from_flag.pop("config") is None
        assert from_config == from_flag, key
        assert from_flag[action.dest] != action.default, key
