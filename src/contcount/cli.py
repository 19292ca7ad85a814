"""Command-line entry point.

Subcommands: ``counter run`` (stream a replay file through a mechanism),
``game run`` (play a game, optionally many seeded trials), ``opt`` (exact
optimum of an instance file or named instance), ``reproduce`` (run a
registered scenario), ``list-scenarios``.

Exit codes: 0 success, 1 validation/parameter error (message on stderr),
2 a reproduction ran fine but its claimed bound FAILED (so CI can tell the
two apart).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import harness, instances
from .counters import envelope_check
from .errors import ContcountError, ParameterError
from .games import GAMES
from .noise import RandomSource


def _add_mech_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mech", default="perfect", choices=list(harness._MECHANISMS))
    parser.add_argument("--wrap", action="append", default=[], choices=list(harness._WRAPPERS),
                        help="wrapper chain, applied in order (repeatable)")
    parser.add_argument("--eps", type=float, default=1.0, help="privacy budget epsilon")
    parser.add_argument("--alpha", type=float, default=2.0,
                        help="multiplicative accuracy target (ftsum)")
    parser.add_argument("--gamma", type=float, default=0.1, help="accuracy failure budget")
    parser.add_argument("--ctree", type=float, default=4.0, help="tree error constant")
    parser.add_argument("--clamp-alpha", type=float, default=None,
                        help="clamp wrapper target alpha (default: declared envelope)")
    parser.add_argument("--clamp-beta", type=float, default=None,
                        help="clamp wrapper target beta (default: declared envelope)")
    parser.add_argument("--zero-noise", action="store_true",
                        help="force every noise draw to 0 (exact-arithmetic mode)")
    parser.add_argument("--seed", type=int, default=0)


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=None,
                        help="instance size for named/random instances")
    parser.add_argument("--inst", action="append", default=[], metavar="KEY=VALUE",
                        help="extra instance parameter (repeatable), e.g. eps=0.01")


def _jsonable(obj):
    """Recursively convert numpy scalars and map non-finite floats to null."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


def _mech_spec(args) -> harness.MechanismSpec:
    return harness.MechanismSpec(
        mech=args.mech, eps=args.eps, alpha=args.alpha, gamma=args.gamma,
        c_tree=args.ctree, wraps=tuple(args.wrap),
        clamp_alpha=args.clamp_alpha, clamp_beta=args.clamp_beta,
        zero_noise=args.zero_noise)


def _cmd_counter_run(args) -> int:
    mech = _mech_spec(args).build(args.n, args.m, RandomSource(args.seed))
    stream = instances.load_stream(args.stream, args.m)
    if stream.shape[0] > args.n:
        raise ParameterError(f"stream has {stream.shape[0]} steps but horizon is {args.n}")
    xs, ys = np.zeros((2, len(stream), args.m))
    for t, a in enumerate(stream):
        ys[t] = mech.update(a)
        xs[t] = mech.true_sums
    _, bad = envelope_check(xs, ys, mech.envelope)
    rows = ["t,coord,true_x,released_y,in_envelope"]
    for t, (x, y, b) in enumerate(zip(xs, ys, bad), start=1):
        for r in range(args.m):
            rows.append(f"{t},{r},{float(x[r])!r},{float(y[r])!r},{int(not b[r])}")
    text = "\n".join(rows) + "\n"
    if args.out:
        harness._write_csv_text(text, args.out)
        print(f"wrote {len(stream)} steps x {args.m} coords to {args.out} (seed {args.seed})")
    else:
        sys.stdout.write(text)
    return 0


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _config_flags(args) -> list:
    """The ``game run`` flags of config file ``args.config``: a ``key = value``
    line is the long option ``--key`` (``_`` for ``-``), ``inst.<k>`` is
    ``--inst k=value``, ``wrap`` one ``--wrap`` per comma-separated item, and
    a switch is set by ``1``, ``true`` or ``yes``. The command line ``args`` is
    parsed after these flags and wins; its ``--wrap`` or ``--n`` drops the
    config's ``wrap`` or ``inst.n``."""
    flags = []
    for raw in instances._read_text(args.config, "config").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line without '=': {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key.startswith("inst."):
            if not (key == "inst.n" and args.n is not None):
                flags.append(f"--inst={key[5:]}={value}")
        elif key == "config":
            raise ParameterError("a config file cannot name another config file")
        # exact option names only (argparse would also take a prefix), not the
        # parser's own attributes
        elif key not in vars(args) or key in ("fn", "command", "subcommand"):
            raise ParameterError(f"unknown config key '{key}'")
        elif key == "wrap":
            if not args.wrap:
                flags += [f"--wrap={w.strip()}" for w in value.split(",") if w.strip()]
        elif isinstance(getattr(args, key), bool):  # a store_true switch
            if value.lower() in ("1", "true", "yes"):
                flags.append("--" + key.replace("_", "-"))
        else:
            flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _instance_params(args) -> dict:
    """The instance parameters of ``--n`` and the ``--inst KEY=VALUE`` items."""
    params = {} if args.n is None else {"n": args.n}
    for item in args.inst:
        if "=" not in item:
            raise ParameterError(f"--inst expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = _coerce(value.strip())
    return params


def _cmd_game_run(args) -> int:
    if args.game is None:
        raise ParameterError("--game (or a config file providing it) is required")
    if args.instance is None:
        raise ParameterError("--instance (or a config file providing it) is required")
    config = harness.ExperimentConfig(
        game=args.game, instance=args.instance, mechanism=_mech_spec(args),
        strategy=args.strategy, trials=args.trials, seed=args.seed,
        compute_opt=not args.skip_opt, instance_params=_instance_params(args),
        out=args.out, splits=args.splits)
    results, summary = harness.run_experiment(config)
    if args.json:
        print(json.dumps(_jsonable(summary), sort_keys=True))
    else:
        if not args.out:
            sys.stdout.write(harness.results_to_csv(results))
        print("# summary")
        for key in sorted(summary):
            print(f"{key} = {summary[key]}")
    return 0


def _cmd_opt(args) -> int:
    # the instance trial 0 of ``game run --seed`` plays
    config = harness.ExperimentConfig(game=args.game, instance=args.instance, seed=args.seed,
                                      instance_params=_instance_params(args))
    _, instance = harness._trial_instance(config, 0)
    result = harness._ENGINES[args.game][1](instance)
    print(f"value = {result.value!r}")
    print(f"method = {result.method}")
    print(f"witness = {result.witness}")
    return 0


def _cmd_reproduce(args) -> int:
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    report = harness.reproduce(args.name, seed=args.seed, **overrides)
    if args.json:
        payload = {"name": report.name, "claim": report.claim,
                   "passed": report.passed, "checks": report.checks}
        print(json.dumps(_jsonable(payload), sort_keys=True))
    else:
        print(f"[{report.name}] {report.claim}")
        for line in report.lines:
            print(f"  {line}")
        print(f"  => {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 2


def _cmd_list_scenarios(_args) -> int:
    for name, claim in harness.list_scenarios():
        print(f"{name}: {claim}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contcount",
        description="Private counter vectors under continual observation and "
                    "a sequential-game simulation laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)

    counter = sub.add_parser("counter", help="counter mechanisms")
    counter_sub = counter.add_subparsers(dest="subcommand", required=True)
    run = counter_sub.add_parser("run", help="stream a replay file through a mechanism")
    run.add_argument("--n", type=int, required=True, help="stream horizon")
    run.add_argument("--m", type=int, required=True, help="vector dimension")
    run.add_argument("--stream", required=True, help="replay file (m decimals per line)")
    run.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    _add_mech_flags(run)
    run.set_defaults(fn=_cmd_counter_run)

    game = sub.add_parser("game", help="sequential games")
    game_sub = game.add_subparsers(dest="subcommand", required=True)
    grun = game_sub.add_parser("run", help="play a game against a counter mechanism")
    grun.add_argument("--game", default=None, choices=sorted(GAMES))
    grun.add_argument("--instance", default=None,
                      help="instance file, paper:<name>, or random:<name>")
    grun.add_argument("--strategy", default="greedy",
                      help="greedy | scripted:<name> | belief:<offset>")
    _add_instance_flags(grun)
    grun.add_argument("--trials", type=int, default=1)
    grun.add_argument("--splits", type=int, default=1,
                      help="resource game only: split each player's unit budget "
                           "into this many fractional increments")
    grun.add_argument("--skip-opt", action="store_true",
                      help="skip the exact optimum (large instances)")
    grun.add_argument("--config", default=None, help="flat key=value config file")
    grun.add_argument("--out", default=None, help="per-trial CSV path")
    grun.add_argument("--json", action="store_true", help="emit the summary as JSON")
    _add_mech_flags(grun)
    grun.set_defaults(fn=_cmd_game_run)

    opt = sub.add_parser("opt", help="exact optimum of an instance")
    opt.add_argument("--game", required=True, choices=sorted(GAMES))
    opt.add_argument("--instance", required=True)
    _add_instance_flags(opt)
    opt.add_argument("--seed", type=int, default=0)
    opt.set_defaults(fn=_cmd_opt)

    rep = sub.add_parser("reproduce", help="run a registered scenario")
    rep.add_argument("name")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--trials", type=int, default=None)
    rep.add_argument("--json", action="store_true")
    rep.set_defaults(fn=_cmd_reproduce)

    ls = sub.add_parser("list-scenarios", help="list registered scenarios")
    ls.set_defaults(fn=_cmd_list_scenarios)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use and kept for the process.

    Parsing does not change the parser, and no command mutates a parsed
    default in place (``--wrap`` and ``--inst`` share their default lists), so
    one parser serves every call.
    """
    return build_parser()


def _parse_args(argv):
    """Parse a command line; a ``game run --config`` file's flags go first."""
    args = _parser().parse_args(argv)
    if getattr(args, "config", None):
        argv = sys.argv[1:] if argv is None else argv
        args = _parser().parse_args(["game", "run", *_config_flags(args), *argv[2:]])
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep exit code 2 reserved for
        # "ran fine, claimed bound failed"
        return 0 if exc.code in (0, None) else 1
    except ContcountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
