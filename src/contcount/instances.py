"""Built-in game instances: named worst-case constructions, random generators,
and the reading of instance and stream files.

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
    _data_lines,
)
from .noise import RandomSource
from .optimal import MATCHING_COPY_BUDGET


def harmonic_number(n: int) -> float:
    return math.fsum(1.0 / i for i in range(1, n + 1))


def _within_budget(values, named: str, verb: str = "build") -> None:
    """Refuse sizes, ``named``, under which a builder would make ``values``
    values, more than MATCHING_COPY_BUDGET, before it makes any."""
    if values > MATCHING_COPY_BUDGET:
        raise ParameterError(f"{named} would {verb} {values} values, over the "
                             f"budget of {MATCHING_COPY_BUDGET}")


# ---------------------------------------------------------------------------
# named constructions


def illustrative_shared_vs_private(n: int = 100, eps: float = 0.01) -> ResourceSharingInstance:
    """One public resource worth 1/(k+1) to its (k+1)-st chooser versus a
    private resource worth 1 - eps for each player. Blind greedy piles onto
    the public resource for harmonic welfare H_n; the all-private assignment
    is worth n(1-eps)."""
    _within_budget(max(n, 0) * (n + 1), f"n = {n}")
    public = ValueCurve([1.0 / (k + 1) for k in range(n)])
    curves = [public] + [ValueCurve([1.0 - eps] * n) for _ in range(n)]
    action_sets = [[0, i + 1] for i in range(n)]
    return ResourceSharingInstance(curves, action_sets)


def twin_temptation(n: int = 10, high: float = 100.0) -> ResourceSharingInstance:
    """Each player has a private resource worth `high` to its first chooser
    (0 afterwards) plus a shared flat resource worth 1. Fearing a twin already
    took the private jackpot, choosing the shared resource is undominated."""
    _within_budget(max(n, 0) * (n + 1), f"n = {n}")
    curves = [ValueCurve([high] + [0.0] * (n - 1) if n > 1 else [high]) for _ in range(n)]
    curves.append(ValueCurve([1.0] * n))
    action_sets = [[i, n] for i in range(n)]
    return ResourceSharingInstance(curves, action_sets)


def slow_decay_temptation(n: int = 25) -> ResourceSharingInstance:
    """Per-player resources decaying as n/(k+1) plus one shared resource
    decaying as 1/(k+1); every action set contains all resources."""
    _within_budget(max(n, 0) * (n + 1), f"n = {n}")
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
    action_sets = [[0, i + 1] for i in range(n)]
    return CostSharingInstance(np.array(costs), action_sets)


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
    _within_budget(max(n, 0) * (n + 1), f"n = {n}")
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


def _sizes(rng: RandomSource, n_low: int, n_max, m_max=None) -> tuple:
    """n uniform on [n_low, n_max] and, given ``m_max``, m uniform on [2, m_max].
    Before any draw, a bound that is not a finite integer at least its low end
    is refused, naming it, and so are bounds under which the draw could build
    more than MATCHING_COPY_BUDGET values (n*m keys, costs or curve entries,
    or n(n - 1)/2 cut pairs)."""
    bounds = [("n_max", n_low, n_max)] + ([] if m_max is None else [("m_max", 2, m_max)])
    for name, low, high in bounds:
        if not low <= high < math.inf:
            raise ParameterError(f"{name} must be finite and >= {low}, got {high}")
        if high != int(high):
            raise ParameterError(f"{name} must be an integer, got {high}")
    n = int(n_max)
    _within_budget(n * (n - 1) // 2 if m_max is None else n * int(m_max),
                   " and ".join(f"{name} = {high}" for name, _, high in bounds), "draw up to")
    return tuple(int(rng.integers(low, int(high) + 1)) for _, low, high in bounds)


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
    n, m = _sizes(rng, 2, n_max, m_max)
    curves = [_random_curve(rng, n) for _ in range(m)]
    return ResourceSharingInstance(curves, _random_subsets(rng, n, m))


def random_market_sharing(rng: RandomSource, n_max: int = 6, m_max: int = 4,
                          value_lo: float = 1.0, value_hi: float = 4.0) -> ResourceSharingInstance:
    if value_lo > value_hi:
        raise ParameterError(f"value_lo = {value_lo} lies above value_hi = {value_hi}")
    n, m = _sizes(rng, 4, n_max, m_max)
    curves = [market_curve(value_lo + (value_hi - value_lo) * rng.uniform(), n)
              for _ in range(m)]
    return ResourceSharingInstance(curves, _random_subsets(rng, n, m))


def random_cut(rng: RandomSource, n_max: int = 16, p: float = 0.3) -> CutInstance:
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"edge probability p must lie in [0, 1], got {p}")
    (n,) = _sizes(rng, 3, n_max)
    # one key per pair (u, v), u < v, in row-major order
    us, vs = np.triu_indices(n, 1)
    keep = rng.uniform(size=us.size) < p
    edges = list(zip(us[keep].tolist(), vs[keep].tolist()))
    if not edges:
        edges = [(0, 1)]
    return CutInstance(n, edges)


def random_scheduling(rng: RandomSource, n_max: int = 8, m_max: int = 4,
                      cost_hi: float = 10.0) -> SchedulingInstance:
    n, m = _sizes(rng, 2, n_max, m_max)
    return SchedulingInstance(cost_hi * rng.uniform(size=(n, m)))


def random_cost_sharing(rng: RandomSource, n_max: int = 8, m_max: int = 8) -> CostSharingInstance:
    n, m = _sizes(rng, 2, n_max, m_max)
    costs = 0.5 + 4.5 * rng.uniform(size=m)
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


def resolve_instance(rule: GameRule, spec, rng: RandomSource | None = None, **params):
    """The instance ``spec`` names for the game ``rule``: an instance object,
    'paper:<name>', 'random:<name>' (drawn from ``rng``), or a file that the
    ``rule.instance_type.parse`` reads. Parameters for an object or a
    file, ones the builder rejects, and an instance of another type than
    ``rule.instance_type`` raise ParameterError."""
    prefix, sep, name = spec.partition(":") if isinstance(spec, str) else ("", "", "")
    if not sep or prefix not in ("paper", "random"):
        if params:
            raise ParameterError(f"instance parameters {params} apply only to paper: and "
                                 "random: instances")
        inst = (rule.instance_type.parse(_read_text(spec, "instance"))
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
]
