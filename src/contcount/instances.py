"""Built-in game instances: named worst-case constructions, random generators,
and the plain-text instance file formats.

Named constructions are addressable as ``paper:<name>`` from the CLI and the
experiment harness; each realizes one of the closed-form bad (or good) cases
the scenario registry checks against.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ParameterError, ValidationError
from .games import (
    CostSharingInstance,
    CutInstance,
    GameRule,
    ResourceSharingInstance,
    SchedulingInstance,
    ValueCurve,
)
from .noise import RandomSource


def harmonic_number(n: int) -> float:
    return math.fsum(1.0 / i for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# named constructions


def illustrative_shared_vs_private(n: int = 100, eps: float = 0.01) -> ResourceSharingInstance:
    """One public resource worth 1/(k+1) to its (k+1)-st chooser versus a
    private resource worth 1 - eps for each player. Blind greedy piles onto
    the public resource for harmonic welfare H_n; the all-private assignment
    is worth n(1-eps)."""
    public = ValueCurve([1.0 / (k + 1) for k in range(n)])
    curves = [public] + [ValueCurve([1.0 - eps] * n) for _ in range(n)]
    action_sets = [[0, i + 1] for i in range(n)]
    return ResourceSharingInstance(curves, action_sets)


def twin_temptation(n: int = 10, high: float = 100.0) -> ResourceSharingInstance:
    """Each player has a private resource worth `high` to its first chooser
    (0 afterwards) plus a shared flat resource worth 1. Fearing a twin already
    took the private jackpot, choosing the shared resource is undominated."""
    curves = [ValueCurve([high] + [0.0] * (n - 1) if n > 1 else [high]) for _ in range(n)]
    curves.append(ValueCurve([1.0] * n))
    action_sets = [[i, n] for i in range(n)]
    return ResourceSharingInstance(curves, action_sets)


def slow_decay_temptation(n: int = 25) -> ResourceSharingInstance:
    """Per-player resources decaying as n/(k+1) plus one shared resource
    decaying as 1/(k+1); every action set contains all resources."""
    curves = [ValueCurve([n / (k + 1) for k in range(n)]) for _ in range(n)]
    curves.append(ValueCurve([1.0 / (k + 1) for k in range(n)]))
    action_sets = [list(range(n + 1)) for _ in range(n)]
    return ResourceSharingInstance(curves, action_sets)


def fragile_first_mover(rho: float = 0.05) -> ResourceSharingInstance:
    """Two players: resource 0 is worth 1 to its first chooser and 0 after,
    resource 1 is worth rho flat. Player 0 can only take resource 1; player 1
    has both options."""
    curves = [ValueCurve([1.0, 0.0]), ValueCurve([rho, rho])]
    return ResourceSharingInstance(curves, [[1], [0, 1]])


def cut_cycle(n: int = 20) -> CutInstance:
    """Even cycle with 2n nodes; the optimum cuts every edge (welfare 4n)."""
    if n < 2:
        raise ParameterError(f"cut-cycle needs n >= 2 (a cycle of at least 4 nodes), got n={n}")
    nodes = 2 * n
    edges = [(i, (i + 1) % nodes) for i in range(nodes)]
    return CutInstance(nodes, edges)


def scheduling_2x2() -> SchedulingInstance:
    """Two jobs, two machines, sizes ((0, 1), (1, 0)); the optimum has makespan 0."""
    return SchedulingInstance(np.array([[0.0, 1.0], [1.0, 0.0]]))


def costshare_public_private(n: int = 10, eps: float = 0.1) -> CostSharingInstance:
    """A public set of cost 1+eps adjacent to everyone plus one private set of
    cost 1 per player; exact counts drive everyone private (total cost n)."""
    costs = [1.0 + eps] + [1.0] * n
    allowed = [[0, i + 1] for i in range(n)]
    return CostSharingInstance(np.array(costs), allowed)


def future_step(w: float = 5.0, eps: float = 0.1) -> ResourceSharingInstance:
    """Future-dependent two-player step instance: resource 0 is worth w to a
    lone user but 1/2 once shared, resource 1 is worth w - eps flat. Greedy
    traps both players on resource 0 for welfare 1 versus 2w - eps."""
    curves = [ValueCurve([w, 0.5]), ValueCurve([w - eps, w - eps])]
    return ResourceSharingInstance(curves, [[0, 1], [0]])


def market_curve(total_value: float, horizon: int) -> ValueCurve:
    """Market-sharing curve: a market of total value c pays c/x to each of x users."""
    return ValueCurve([total_value / (j + 1) for j in range(horizon)])


def market_log_loss(n: int = 16, eps: float = 0.01) -> ResourceSharingInstance:
    """Market sharing where player i may serve market 0 (total value 1) or its
    own market i of total value (n-i+1)(1-eps)/i. Believing later players only
    care about market i makes serving market 0 undominated for everyone,
    collapsing welfare to 1."""
    curves = [market_curve(1.0, n)]
    for i in range(1, n + 1):
        curves.append(market_curve((n - i + 1) * (1.0 - eps) / i, n))
    action_sets = [[0, i + 1] for i in range(n)]
    return ResourceSharingInstance(curves, action_sets)


def market_undom_benchmark(n: int, eps: float) -> float:
    """Total value of the all-private assignment in market_log_loss."""
    return math.fsum((n - i + 1) * (1.0 - eps) / i for i in range(1, n + 1))


def market_undom_exact_opt(n: int, eps: float) -> float:
    """Exact optimum of market_log_loss: drop the cheapest private market in
    favor of the shared one when its total value 1 is larger."""
    values = [(n - i + 1) * (1.0 - eps) / i for i in range(1, n + 1)]
    smallest = min(values)
    if 1.0 > smallest:
        return math.fsum(values) - smallest + 1.0
    return math.fsum(values)


# name -> builder(**params)
PAPER_INSTANCES = {
    "sec1.1": illustrative_shared_vs_private,
    "noinfo": twin_temptation,
    "noinfospecial": slow_decay_temptation,
    "lb-undom": fragile_first_mover,
    "cut-cycle": cut_cycle,
    "sched2x2": scheduling_2x2,
    "costshare-public-private": costshare_public_private,
    "future-lb": future_step,
    "marketundom": market_log_loss,
}


# ---------------------------------------------------------------------------
# random instance generators (fuzz + harness trials)


def _random_curve(rng: RandomSource, horizon: int) -> ValueCurve:
    family = int(rng.integers(0, 3))
    v0 = 0.5 + 1.5 * rng.uniform()
    if family == 0:
        p = 0.5 + 1.5 * rng.uniform()
        vals = [v0 / (k + 1) ** p for k in range(horizon)]
    elif family == 1:
        q = 0.5 + 0.45 * rng.uniform()
        vals = [v0 * q ** k for k in range(horizon)]
    else:
        step = int(rng.integers(1, max(2, horizon)))
        vals = [v0 if k < step else v0 * 0.25 for k in range(horizon)]
    return ValueCurve(vals)


def _size(rng: RandomSource, name: str, low: int, high) -> int:
    """A size uniform on [low, high]; a ``high`` (the parameter ``name``) that is
    not finite and at least ``low`` is refused."""
    if not low <= high < math.inf:
        raise ParameterError(f"{name} must be finite and >= {low}, got {high}")
    return int(rng.integers(low, high + 1))


def _random_subsets(rng: RandomSource, n: int, m: int) -> list:
    """n sorted nonempty subsets of range(m). Player i draws a size k uniform
    on 1..m and takes the indices of the k smallest keys in row i of one
    (n, m) block of uniform keys, so every k-subset is equally likely."""
    sizes = rng.integers(1, m + 1, size=n)
    order = np.argsort(rng.uniform(size=(n, m)), axis=1, kind="stable")
    # indices past a player's size become m, which sorts behind the subset
    taken = np.where(np.arange(m) < sizes[:, None], order, m)
    taken.sort(axis=1)
    return [row[:k] for row, k in zip(taken.tolist(), sizes.tolist())]


def random_resource_sharing(rng: RandomSource, n_max: int = 50,
                            m_max: int = 10) -> ResourceSharingInstance:
    n = _size(rng, "n_max", 2, n_max)
    m = _size(rng, "m_max", 2, m_max)
    curves = [_random_curve(rng, n) for _ in range(m)]
    return ResourceSharingInstance(curves, _random_subsets(rng, n, m))


def random_market_sharing(rng: RandomSource, n_max: int = 6, m_max: int = 4,
                          value_lo: float = 1.0, value_hi: float = 4.0) -> ResourceSharingInstance:
    n = _size(rng, "n_max", 4, n_max)
    m = _size(rng, "m_max", 2, m_max)
    curves = [market_curve(value_lo + (value_hi - value_lo) * rng.uniform(), n)
              for _ in range(m)]
    return ResourceSharingInstance(curves, _random_subsets(rng, n, m))


def random_cut(rng: RandomSource, n_max: int = 16, p: float = 0.3) -> CutInstance:
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"edge probability p must lie in [0, 1], got {p}")
    n = _size(rng, "n_max", 3, n_max)
    # one key per pair (u, v), u < v, in row-major order
    us, vs = np.triu_indices(n, 1)
    keep = rng.uniform(size=us.size) < p
    edges = list(zip(us[keep].tolist(), vs[keep].tolist()))
    if not edges:
        edges = [(0, 1)]
    return CutInstance(n, edges)


def random_scheduling(rng: RandomSource, n_max: int = 8, m_max: int = 4,
                      cost_hi: float = 10.0) -> SchedulingInstance:
    n = _size(rng, "n_max", 2, n_max)
    m = _size(rng, "m_max", 2, m_max)
    return SchedulingInstance(cost_hi * rng.generator.random((n, m)))


def random_cost_sharing(rng: RandomSource, n_max: int = 8, m_max: int = 8) -> CostSharingInstance:
    n = _size(rng, "n_max", 2, n_max)
    m = _size(rng, "m_max", 2, m_max)
    costs = 0.5 + 4.5 * rng.generator.random(m)
    return CostSharingInstance(costs, _random_subsets(rng, n, m))


def random_open_market(rng: RandomSource) -> ResourceSharingInstance:
    """Market sharing with 10-30 players, 2-6 markets open to every player and
    market values of 20n to 40n. There are at least as many players as
    markets, so the exact optimum is the total of all market values."""
    n = int(rng.integers(10, 31))
    m = int(rng.integers(2, 7))
    values = [20.0 * n + 20.0 * n * u for u in rng.uniform(size=m).tolist()]
    curves = [market_curve(c, n) for c in values]
    return ResourceSharingInstance(curves, [list(range(m)) for _ in range(n)])


# name -> generator(rng, **params)
RANDOM_GENERATORS = {
    "resource": random_resource_sharing,
    "market": random_market_sharing,
    "open-market": random_open_market,
    "cut": random_cut,
    "scheduling": random_scheduling,
    "costshare": random_cost_sharing,
    # small enough for the future-dependent brute-force optimum
    "future": functools.partial(random_resource_sharing, n_max=5, m_max=3),
}


# ---------------------------------------------------------------------------
# plain-text instance files


def _read_text(path: str, what: str) -> str:
    """The text of a UTF-8 file; one that cannot be read or decoded raises
    ParameterError naming it as a `what` file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read {what} file '{path}': {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParameterError(f"cannot read {what} file '{path}': not UTF-8 ({exc.reason})") from exc


def _data_lines(text: str) -> list:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def parse_resource_sharing(text: str) -> ResourceSharingInstance:
    """Header 'n m', then m curve lines (n values each), then n action-set lines."""
    lines = _data_lines(text)
    try:
        n, m = (int(x) for x in lines[0].split())
        curves = [ValueCurve([float(v) for v in lines[1 + r].split()]) for r in range(m)]
        action_sets = [[int(v) for v in line.split()] for line in lines[1 + m:]]
        if len(action_sets) != n:
            raise ValueError(f"expected {n} action-set lines, got {len(action_sets)}")
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"malformed resource-sharing instance: {exc}") from exc
    return ResourceSharingInstance(curves, action_sets)


def parse_cut(text: str) -> CutInstance:
    """Header 'n', then one 'u v' line per edge."""
    lines = _data_lines(text)
    try:
        n = int(lines[0])
        edges = [tuple(int(v) for v in line.split()) for line in lines[1:]]
        if any(len(edge) != 2 for edge in edges):
            raise ValueError("every edge line needs exactly two node indices")
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"malformed cut instance: {exc}") from exc
    return CutInstance(n, edges)


def parse_scheduling(text: str) -> SchedulingInstance:
    """Header 'n m', then n rows of m job sizes."""
    lines = _data_lines(text)
    try:
        n, m = (int(x) for x in lines[0].split())
        costs = np.array([[float(v) for v in line.split()] for line in lines[1:]])
        if costs.shape != (n, m):
            raise ValueError(f"expected a {n}x{m} size matrix")
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"malformed scheduling instance: {exc}") from exc
    return SchedulingInstance(costs)


def parse_cost_sharing(text: str) -> CostSharingInstance:
    """Header 'n m', then one line of m set costs, then n adjacency lines."""
    lines = _data_lines(text)
    try:
        n, m = (int(x) for x in lines[0].split())
        costs = np.array([float(v) for v in lines[1].split()])
        if costs.size != m:
            raise ValueError(f"expected {m} set costs")
        allowed = [[int(v) for v in line.split()] for line in lines[2:]]
        if len(allowed) != n:
            raise ValueError(f"expected {n} adjacency lines, got {len(allowed)}")
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"malformed cost-sharing instance: {exc}") from exc
    return CostSharingInstance(costs, allowed)


_PARSERS = {
    ResourceSharingInstance: parse_resource_sharing,
    CutInstance: parse_cut,
    SchedulingInstance: parse_scheduling,
    CostSharingInstance: parse_cost_sharing,
}


def resolve_instance(rule: GameRule, spec, rng: RandomSource | None = None, **params):
    """The instance ``spec`` names for the game ``rule``: an instance object,
    'paper:<name>', 'random:<name>' (drawn from ``rng``), or a file that the
    parser of ``rule.instance_type`` reads. Parameters for an object or a
    file, ones the builder rejects, and an instance of another type than
    ``rule.instance_type`` raise ParameterError."""
    prefix, sep, name = spec.partition(":") if isinstance(spec, str) else ("", "", "")
    if not sep or prefix not in ("paper", "random"):
        if params:
            raise ParameterError(f"instance parameters {params} apply only to paper: and "
                                 "random: instances")
        inst = (_PARSERS[rule.instance_type](_read_text(spec, "instance"))
                if isinstance(spec, str) else spec)
    else:
        table = PAPER_INSTANCES if prefix == "paper" else RANDOM_GENERATORS
        if name not in table:
            raise ParameterError(f"unknown {prefix} instance '{name}' "
                                 f"(have: {', '.join(sorted(table))})")
        make = table[name]
        if prefix == "random":
            if rng is None:
                raise ParameterError("random instances need a RandomSource")
            make = functools.partial(make, rng)
        try:
            inst = make(**params)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"bad parameters {params} for '{spec}': {exc}") from exc
    rule.check_instance(inst)
    return inst


def parse_stream(text: str, m: int) -> np.ndarray:
    """Stream replay format: one line per step, m whitespace-separated decimals,
    '#' comments."""
    rows = []
    for line in _data_lines(text):
        try:
            vals = [float(v) for v in line.split()]
        except ValueError as exc:
            raise ValidationError(f"malformed stream line {line!r}: {exc}") from exc
        if len(vals) != m:
            raise ValidationError(f"stream line has {len(vals)} values, expected {m}")
        rows.append(vals)
    return np.array(rows) if rows else np.zeros((0, m))


def load_stream(path: str, m: int) -> np.ndarray:
    return parse_stream(_read_text(path, "stream"), m)


__all__ = [
    "harmonic_number",
    "illustrative_shared_vs_private",
    "twin_temptation",
    "slow_decay_temptation",
    "fragile_first_mover",
    "cut_cycle",
    "scheduling_2x2",
    "costshare_public_private",
    "future_step",
    "market_curve",
    "market_log_loss",
    "market_undom_benchmark",
    "market_undom_exact_opt",
    "PAPER_INSTANCES",
    "RANDOM_GENERATORS",
    "random_resource_sharing",
    "random_market_sharing",
    "random_cut",
    "random_scheduling",
    "random_cost_sharing",
    "random_open_market",
    "resolve_instance",
    "parse_stream",
    "load_stream",
]
