"""Timing shims for the traced run.

The shims wrap public module functions and class methods of the package and
record one span per call: name, start, end and parent. Spans stay in memory
(four flat arrays) until the run ends. Self time is a span's duration minus
the durations of its child spans. Shims are installed only inside
``installed()``; timed runs never see them.

Span names start with the package module, the layer, that does the work:
noise, counters, games, strategies, optimal, instances, harness or cli.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time
from array import array
from collections import defaultdict

import numpy as np

import contcount
from contcount import cli, counters, games, harness, instances, noise, optimal, strategies

LAYERS = ("noise", "counters", "games", "strategies", "optimal", "instances", "harness", "cli")
_MODULES = (contcount, noise, counters, games, strategies, optimal, instances, harness, cli)

GAMES = ("resource_sharing", "resource_sharing_fractional", "future_dependent", "cut",
         "scheduling", "cost_sharing")
SOLVERS = ("opt_resource_sharing", "opt_scheduling", "opt_cut", "opt_future_dependent",
           "opt_cost_sharing")
# evaluators the exact solvers call once per candidate; counted, not spanned
EVALUATORS = ("resource_assignment_value", "future_assignment_value", "scheduling_makespan",
              "cut_social_welfare", "cost_sharing_total")
HARNESS_CALLS = ("run_experiment", "run_trial", "summarize", "results_to_csv", "write_csv",
                 "reproduce")
UPDATE_CLASSES = ("TreeSum", "FTSum", "PerfectCounter", "ZeroFailureWrapper",
                  "UnderestimatorWrapper", "MonotoneWrapper")
BUILD_LABELS = ("treesum", "ftsum", "tree_chain")
TREE_CHAIN = ("clamp", "under", "mono")


def chain_label(spec) -> str:
    """Name of a MechanismSpec's shape: treesum, ftsum, tree_chain, or mech+wraps."""
    if spec.mech == "treesum" and tuple(spec.wraps) == TREE_CHAIN:
        return "tree_chain"
    return "+".join((spec.mech,) + tuple(spec.wraps))


class Tracer:
    """In-memory span store for one traced pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.solver_depth = 0
        self.counts = defaultdict(int)      # exact counts taken at span boundaries
        self.players = []                   # player count of every resolved instance

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def spans(self):
        """(name ids, parents, durations in ns, self times in ns) as arrays."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return name_id, parent, dur, dur - child

    def write(self, path) -> None:
        """Write every span as gzipped TSV: span, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i, (nid, par, s, e) in enumerate(zip(self.name_id, self.parent,
                                                     self.start, self.end)):
                fh.write(f"{i}\t{par}\t{names[nid]}\t{s}\t{e}\n")


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(out)
        return out
    return shim


def _solver(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        tracer.solver_depth += 1
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.solver_depth -= 1
    return shim


def _evaluator(tracer: Tracer, fn):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        if tracer.solver_depth:
            tracer.counts["optimal.evaluations"] += 1
        return fn(*args, **kwargs)
    return shim


def _update(tracer: Tracer, fn):
    names = {}

    @functools.wraps(fn)
    def update(self, a):
        cls = type(self)
        name = names.get(cls)
        if name is None:
            name = names[cls] = f"counters.{cls.__name__}.update"
        idx = tracer.open(name)
        try:
            out = fn(self, a)
        finally:
            tracer.close(idx)
        if isinstance(self, counters.FTSum):
            tracer.counts["ftsum.phase_one_pairs"] += int(self.in_phase_one().sum())
            tracer.counts["ftsum.pairs"] += self.dim
        return out
    return update


def _build(tracer: Tracer, fn):
    @functools.wraps(fn)
    def build(self, *args, **kwargs):
        idx = tracer.open(f"counters.build.{chain_label(self)}")
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close(idx)
    return build


def _rebind(orig, new, undo) -> None:
    """Point every reference to ``orig`` in the package's module namespaces,
    and in dict-of-tuple dispatch tables there, at ``new``."""
    for mod in _MODULES:
        for ns in (vars(mod),) + tuple(v for v in vars(mod).values() if isinstance(v, dict)):
            for key, val in list(ns.items()):
                if val is orig:
                    new_val = new
                elif isinstance(val, tuple) and any(v is orig for v in val):
                    new_val = tuple(new if v is orig else v for v in val)
                else:
                    continue
                undo.append(functools.partial(ns.__setitem__, key, val))
                ns[key] = new_val


def _set_attr(obj, attr, new, undo) -> None:
    undo.append(functools.partial(setattr, obj, attr, getattr(obj, attr)))
    setattr(obj, attr, new)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every shim for the duration of the block, then restore."""
    undo = []

    def count_draws(out):
        tracer.counts["noise.laplace.draws"] += int(np.size(out))

    def count_players(inst):
        tracer.players.append(int(inst.n))

    try:
        _rebind(noise.laplace, _spanned(tracer, "noise.laplace", noise.laplace, count_draws),
                undo)
        for fn in ("validate_update", "envelope_check"):
            orig = getattr(counters, fn)
            _rebind(orig, _spanned(tracer, f"counters.{fn}", orig), undo)
        for game in GAMES:
            orig = getattr(games, f"play_{game}")
            _rebind(orig, _spanned(tracer, f"games.play.{game}", orig), undo)
        _rebind(games.verify_trace, _spanned(tracer, "games.verify_trace", games.verify_trace),
                undo)
        for fn in SOLVERS:
            orig = getattr(optimal, fn)
            _rebind(orig, _solver(tracer, f"optimal.{fn}", orig), undo)
        for fn in EVALUATORS:
            orig = getattr(optimal, fn)
            _rebind(orig, _evaluator(tracer, orig), undo)
        _rebind(instances.resolve_instance,
                _spanned(tracer, "instances.resolve_instance", instances.resolve_instance,
                         count_players), undo)
        for fn in HARNESS_CALLS:
            orig = getattr(harness, fn)
            _rebind(orig, _spanned(tracer, f"harness.{fn}", orig), undo)
        _rebind(cli.main, _spanned(tracer, "cli.main", cli.main), undo)

        _set_attr(counters.CounterMechanism, "update",
                  _update(tracer, counters.CounterMechanism.update), undo)
        for cls in (counters.TreeSum, counters.FTSum):
            _set_attr(cls, "__init__", _spanned(tracer, f"counters.{cls.__name__}.init",
                                                cls.__init__), undo)
        _set_attr(harness.MechanismSpec, "build", _build(tracer, harness.MechanismSpec.build),
                  undo)
        for cls in vars(strategies).values():
            if isinstance(cls, type) and issubclass(cls, strategies.Strategy):
                for attr in [a for a in vars(cls) if a.startswith("choose_")]:
                    _set_attr(cls, attr, _spanned(tracer, "strategies.choose",
                                                  getattr(cls, attr)), undo)
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, traced_wall_ns: int) -> dict:
    """Per-layer numbers from one traced pass; BENCHMARK.json gives their units."""
    name_id, parent, dur, self_ns = tracer.spans()
    names = tracer.names
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    self_by = np.bincount(name_id, weights=self_ns, minlength=k)
    ids = {n: i for i, n in enumerate(names)}

    def n_calls(name):
        return int(calls[ids[name]]) if name in ids else 0

    def self_s(name):
        return float(self_by[ids[name]]) / 1e9 if name in ids else 0.0

    def durations(name):
        return dur[name_id == ids[name]] if name in ids else np.empty(0)

    def outermost(prefix, suffix):
        """Spans of a family whose parent is not in the same family."""
        family = np.array([n.startswith(prefix) and n.endswith(suffix) for n in names] or
                          [False], dtype=bool)
        own = family[name_id]
        parent_in = np.zeros_like(own)
        nested = parent >= 0
        parent_in[nested] = family[name_id[parent[nested]]]
        return int(np.count_nonzero(own & ~parent_in))

    out = {
        "noise.laplace.calls": n_calls("noise.laplace"),
        "noise.laplace.draws": tracer.counts["noise.laplace.draws"],
        "noise.laplace.self_s": self_s("noise.laplace"),
        "counters.validate_update.calls": n_calls("counters.validate_update"),
        "counters.validate_update.self_s": self_s("counters.validate_update"),
    }
    outer_updates = outermost("counters.", ".update")
    out["counters.validate_per_update"] = (
        n_calls("counters.validate_update") / outer_updates if outer_updates else 0.0)
    for cls in UPDATE_CLASSES:
        out[f"counters.{cls}.update.self_s"] = self_s(f"counters.{cls}.update")
    for label in BUILD_LABELS:
        builds = durations(f"counters.build.{label}")
        out[f"counters.build.{label}_ms"] = float(builds.mean()) / 1e6 if builds.size else 0.0
    out["counters.envelope_check.self_s"] = self_s("counters.envelope_check")
    pairs = tracer.counts["ftsum.pairs"]
    out["counters.ftsum.phase_one_frac"] = (
        tracer.counts["ftsum.phase_one_pairs"] / pairs if pairs else 0.0)
    for game in GAMES:
        out[f"games.play.{game}.self_s"] = self_s(f"games.play.{game}")
        out[f"games.play.{game}.calls"] = n_calls(f"games.play.{game}")
    out["games.verify_trace.self_s"] = self_s("games.verify_trace")
    out["strategies.choose.calls"] = outermost("strategies.choose", "")
    out["strategies.choose.self_s"] = self_s("strategies.choose")
    for fn in SOLVERS:
        out[f"optimal.{fn}.self_s"] = self_s(f"optimal.{fn}")
    out["optimal.evaluations"] = tracer.counts["optimal.evaluations"]
    out["instances.resolve_instance.self_s"] = self_s("instances.resolve_instance")
    out["instances.players_mean"] = float(np.mean(tracer.players)) if tracer.players else 0.0
    out["instances.players_max"] = max(tracer.players, default=0)
    trials = durations("harness.run_trial") / 1e6
    out["harness.run_trial.p50_ms"] = _pct(trials, 50)
    out["harness.run_trial.p99_ms"] = _pct(trials, 99)
    out["harness.run_trial.self_s"] = self_s("harness.run_trial")
    out["harness.results_to_csv.self_s"] = self_s("harness.results_to_csv")
    out["harness.summarize.self_s"] = self_s("harness.summarize")
    out["cli.main.self_s"] = self_s("cli.main")
    layer_self = defaultdict(float)
    for name, s in zip(names, self_by):
        layer_self[name.split(".", 1)[0]] += float(s)
    for layer in LAYERS:
        out[f"layer.{layer}.self_share"] = layer_self[layer] / traced_wall_ns
    out["layer.bench.self_share"] = 1.0 - sum(layer_self.values()) / traced_wall_ns
    return out
