"""Sequential games and the one loop that plays them.

Every game runs the same loop, :func:`play`: players arrive in order, each
sees her slice of the counter mechanism's current release, a strategy picks
an action, and the action's update vector is fed back into the counter. A
:class:`GameRule` supplies what differs between games: the counter dimension
and update bound, each player's actions in tie-break order, her slice of the
release, the update vector of an action, the perceived utility, the realized
utilities from the final true counts, the final usage, and ``value``: the
objective of an action profile, a welfare to maximize or a cost to minimize.
``value`` is each objective's one definition: the exact solvers in
``optimal`` optimize it, ``play`` stores it as ``PlayTrace.metric``, and
``verify_trace`` checks the realized utilities against it.

Each game is one rule in :data:`GAMES`, which the harness and the CLI read;
its ``instance_type`` is the only instance class ``play`` accepts. Adding a
game means a rule here (for a new instance class, also its parser in
``instances._PARSERS`` and its builders), an exact solver in ``optimal``, and
one ``harness._ENGINES`` entry. The ``play_<game>`` aliases below remain only
for ``harness._ENGINES`` and the benchmark's timing shims.

Each play returns a columnar :class:`PlayTrace`, row i for player i: her
view of the release and of the true counts before her move, her utilities
from both, and her action. Conventions shared by all games:

* Displayed counts are real-valued; value-curve lookups floor them and clamp
  into the curve's index range (``ValueCurve.value_at``).
* Greedy ties break toward the first action in the rule's order, the lowest
  resource/machine/set/color index, so runs are deterministic.
* Realized social welfare is the sum of realized utilities (``math.fsum``, so
  bookkeeping identities hold exactly); perceived social welfare is the same
  sum over perceived utilities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .counters import CounterMechanism
from .errors import ParameterError, ValidationError

_MONOTONE_TOL = 1e-12
_all = np.logical_and.reduce  # ndarray.all() without numpy's Python wrapper


class ValueCurve:
    """Nonincreasing, nonnegative resource values; entry k is the value to the
    (k+1)-st chooser. Lookups beyond the last entry extend by the last value."""

    def __init__(self, values):
        vals = np.array(values, dtype=float)
        table = vals.tolist()
        # a curve that never rises, starts finite and ends nonnegative is valid;
        # the checks that name a failure (and allow a tiny rise) see the rest
        if not (vals.ndim == 1 and table and table[0] < math.inf and table[-1] >= 0
                and _all(vals[1:] <= vals[:-1])):
            if vals.ndim != 1 or vals.size == 0:
                raise ParameterError("value curve needs at least one entry")
            if not np.all(np.isfinite(vals)):
                raise ParameterError("value curve entries must be finite")
            if np.any(vals < 0):
                raise ParameterError("value curve entries must be nonnegative")
            if np.any(np.diff(vals) > _MONOTONE_TOL):
                raise ParameterError("value curve must be nonincreasing")
        vals.setflags(write=False)  # the lookup table below is a copy of it
        self.values = vals
        self._table = table
        self._last = vals.size - 1

    def __len__(self) -> int:
        return int(self.values.size)

    def value_at(self, k) -> float:
        """Value at (possibly fractional, out-of-range or NaN) count k."""
        idx = int(k) if k > 0 else 0  # int floors a positive k
        return self._table[min(idx, self._last)]

    def __repr__(self) -> str:
        head = ", ".join(f"{v:.4g}" for v in self.values[:4])
        tail = ", ..." if len(self) > 4 else ""
        return f"ValueCurve([{head}{tail}])"


@dataclass
class ResourceSharingInstance:
    """Unit-demand resource sharing: player i picks one resource from action_sets[i]."""

    curves: list
    action_sets: list

    def __post_init__(self):
        if not self.action_sets:
            raise ParameterError("need at least one player")
        for i, acts in enumerate(self.action_sets):
            if not acts:
                raise ParameterError(f"player {i} has an empty action set")
            for r in acts:
                if not 0 <= r < len(self.curves):
                    raise ParameterError(f"player {i} references unknown resource {r}")

    @property
    def n(self) -> int:
        return len(self.action_sets)

    @property
    def m(self) -> int:
        return len(self.curves)


@dataclass
class CutInstance:
    """Simple undirected graph; players are nodes, colors are red=0 / blue=1."""

    n_nodes: int
    edges: list

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ParameterError(f"self-loop at node {u}")
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ParameterError(f"edge ({u}, {v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ParameterError(f"duplicate edge {key}")
            seen.add(key)
        self.edges = sorted(seen)
        self._neighbors = [[] for _ in range(self.n_nodes)]
        for u, v in self.edges:
            self._neighbors[u].append(v)
            self._neighbors[v].append(u)

    def neighbors(self, u: int) -> list:
        return self._neighbors[u]

    @property
    def n(self) -> int:
        return self.n_nodes

    @property
    def max_degree(self) -> int:
        return max((len(nb) for nb in self._neighbors), default=0)


@dataclass
class SchedulingInstance:
    """Unrelated machine scheduling: costs[k, q] is job k's size on machine q."""

    costs: np.ndarray

    def __post_init__(self):
        self.costs = np.asarray(self.costs, dtype=float)
        if self.costs.ndim != 2 or self.costs.size == 0:
            raise ParameterError("cost matrix must be 2-D and nonempty")
        if not np.all(np.isfinite(self.costs)):
            raise ParameterError("job sizes must be finite")
        if np.any(self.costs < 0):
            raise ParameterError("job sizes must be nonnegative")

    @property
    def n(self) -> int:
        return self.costs.shape[0]

    @property
    def m(self) -> int:
        return self.costs.shape[1]

    @property
    def t_star(self) -> np.ndarray:
        """Per-job minimum size over machines."""
        return self.costs.min(axis=1)


@dataclass
class CostSharingInstance:
    """Set costs shared equally among the players who pick each set."""

    set_costs: np.ndarray
    allowed: list

    def __post_init__(self):
        self.set_costs = np.asarray(self.set_costs, dtype=float)
        if not np.all(np.isfinite(self.set_costs)):
            raise ParameterError("set costs must be finite")
        if np.any(self.set_costs <= 0):
            raise ParameterError("set costs must be positive")
        for i, sets in enumerate(self.allowed):
            if not sets:
                raise ParameterError(f"player {i} is adjacent to no set")
            for s in sets:
                if not 0 <= s < self.set_costs.size:
                    raise ParameterError(f"player {i} references unknown set {s}")

    @property
    def n(self) -> int:
        return len(self.allowed)

    @property
    def m(self) -> int:
        return int(self.set_costs.size)


@dataclass
class PlayTrace:
    """Columnar record of one sequential play: row i is player i's move."""

    rule: GameRule
    actions: list               # each player's action; her largest investment when split
    displayed: np.ndarray       # (n, k): her view of the release before her move
    true_before: np.ndarray     # (n, k): the same view of the true counts
    realized: np.ndarray        # (n,): utilities from true counts, settled at game end
    perceived: np.ndarray       # (n,): utilities from displayed counts
    final_usage: np.ndarray
    social_welfare: float
    perceived_welfare: float
    metric: float               # rule.value of the actions; the welfare when fractional


def _check_mechanism(mech: CounterMechanism, dim: int, horizon: int, bound: float):
    if mech.dim != dim:
        raise ValidationError(f"counter dimension {mech.dim} != required {dim}")
    if mech.horizon < horizon:
        raise ValidationError(f"counter horizon {mech.horizon} < {horizon} players")
    if mech.update_bound + 1e-9 < bound:
        raise ValidationError(
            f"counter update bound {mech.update_bound} cannot carry updates of l1 norm {bound}")
    if mech.t != 0:
        raise ValidationError("counter has already consumed updates")


def _tally(m: int, actions) -> list:
    """Number of players on each of m resources or sets."""
    counts = [0] * m
    for r in actions:
        counts[r] += 1
    return counts


class GameRule:
    """The facts of one game that :func:`play`, the strategies, the solvers
    and the harness use.

    The defaults are unit-demand resource sharing: one counter coordinate per
    resource, unit updates, and player i's utility v_r at the number of
    earlier choosers of her resource r. Players are ``inst.n`` in arrival order.
    """

    name = "resource"           # the game's key in GAMES
    instance_type = ResourceSharingInstance   # the one instance class play accepts
    sense = "max"               # value() is a welfare ("max") or a cost ("min")
    utility_is_cost = False     # players minimize utility() instead of maximizing it
    tol = 0.0                   # how far realized_total() may lie from value()

    def check_instance(self, inst) -> None:
        """Raise ParameterError unless ``inst`` is of this game's instance class."""
        if not isinstance(inst, self.instance_type):
            raise ParameterError(f"the {self.name} game plays a {self.instance_type.__name__}, "
                                 f"not a {type(inst).__name__}")

    def dim(self, inst) -> int:
        return inst.m

    def bound(self, inst) -> float:
        """l1 bound of one player's update."""
        return 1.0

    def actions(self, inst, player) -> list:
        """The player's actions in tie-break order."""
        return sorted(inst.action_sets[player])

    def view(self, counts, player):
        """The player's slice of a counter vector."""
        return counts

    def add_update(self, update, inst, player, action, weight) -> None:
        """Add ``weight`` times the counter update of ``action`` to ``update``."""
        update[action] += weight

    def utility(self, inst, player, action, counts) -> float:
        """Utility of ``action`` when ``counts`` is the player's view before her move."""
        return inst.curves[action].value_at(counts[action])

    def settle(self, inst, actions, final, realized) -> None:
        """Overwrite ``realized`` where the final true counts settle the
        utilities; here the utility at the true counts of each move stands."""

    def usage(self, actions, final):
        """Final usage of a finished play."""
        return final

    def value(self, inst, actions) -> float:
        """The objective of a unit-demand action profile, one action per
        player: here the welfare, the first k values of each resource's
        curve where k players chose it."""
        counts = _tally(inst.m, actions)
        return math.fsum(inst.curves[r].value_at(j) for r in range(inst.m)
                         for j in range(counts[r]))

    def realized_total(self, trace) -> float:
        """The objective as the trace's realized utilities add it up."""
        return math.fsum(trace.realized)


class FutureDependentRule(GameRule):
    """Every player on a resource with final usage w gets the value of its
    w-th chooser."""

    name = "future"

    def settle(self, inst, actions, final, realized) -> None:
        realized[:] = [inst.curves[r].value_at(final[r] - 1.0) for r in actions]

    def value(self, inst, actions) -> float:
        counts = _tally(inst.m, actions)
        return math.fsum(inst.curves[r].value_at(counts[r] - 1) for r in range(inst.m)
                         for _ in range(counts[r]))


class CutRule(GameRule):
    """Max-cut coloring, red = 0 and blue = 1; utility is the number of
    oppositely colored neighbors at game end, so the welfare is twice the cut.

    The counter carries two coordinates per node (red and blue counts of that
    node's neighborhood); a player's color feeds that coordinate of every
    incident node, so updates have l1 norm up to the maximum degree.
    """

    name = "cut"
    instance_type = CutInstance

    def dim(self, inst) -> int:
        return 2 * inst.n

    def bound(self, inst) -> float:
        return float(max(inst.max_degree, 1))

    def actions(self, inst, player) -> list:
        return [0, 1]

    def view(self, counts, player):
        return counts[2 * player: 2 * player + 2]

    def add_update(self, update, inst, player, action, weight) -> None:
        for j in inst.neighbors(player):
            update[2 * j + action] += weight

    def utility(self, inst, player, action, counts) -> float:
        return float(counts[1 - action])

    def settle(self, inst, actions, final, realized) -> None:
        realized[:] = [float(sum(1 for j in inst.neighbors(i) if actions[j] != actions[i]))
                       for i in range(inst.n)]

    def usage(self, actions, final):
        return np.array([float(actions.count(0)), float(actions.count(1))])

    def value(self, inst, actions) -> float:
        return 2.0 * sum(1 for u, v in inst.edges if actions[u] != actions[v])


class SchedulingRule(GameRule):
    """Load balancing on unrelated machines; utility is the negative final
    load of the chosen machine and the value is the makespan. Updates carry
    job sizes, so the counter's update bound must cover the largest size."""

    name = "scheduling"
    instance_type = SchedulingInstance
    sense = "min"
    tol = 1e-9

    def bound(self, inst) -> float:
        return max(float(inst.costs.max()), 1e-12)

    def actions(self, inst, player) -> list:
        return list(range(inst.m))

    def add_update(self, update, inst, player, action, weight) -> None:
        update[action] += weight * inst.costs[player, action]

    def utility(self, inst, player, action, counts) -> float:
        return -(float(counts[action]) + float(inst.costs[player, action]))

    def settle(self, inst, actions, final, realized) -> None:
        realized[:] = [-float(final[q]) for q in actions]

    def value(self, inst, actions) -> float:
        loads = np.zeros(inst.m)
        for k, q in enumerate(actions):
            loads[q] += inst.costs[k, q]
        return float(loads.max())

    def realized_total(self, trace) -> float:
        """The worst realized load."""
        return -float(trace.realized.min())


class CostSharingRule(GameRule):
    """Fair cost sharing: a player's cost is her set's cost over the number of
    its users (herself included); at the move that number is the displayed
    count plus one, at game end the final true count. The value sums the
    distinct chosen sets' costs."""

    name = "costshare"
    instance_type = CostSharingInstance
    sense = "min"
    utility_is_cost = True
    tol = 1e-9

    def actions(self, inst, player) -> list:
        return sorted(inst.allowed[player])

    def utility(self, inst, player, action, counts) -> float:
        return float(inst.set_costs[action]) / (max(float(counts[action]), 0.0) + 1.0)

    def settle(self, inst, actions, final, realized) -> None:
        realized[:] = [float(inst.set_costs[s]) / float(final[s]) for s in actions]

    def value(self, inst, actions) -> float:
        return math.fsum(inst.set_costs[s] for s in set(actions))


RESOURCE = GameRule()
FUTURE_DEPENDENT = FutureDependentRule()
CUT = CutRule()
SCHEDULING = SchedulingRule()
COST_SHARING = CostSharingRule()
GAMES = {rule.name: rule for rule in (RESOURCE, FUTURE_DEPENDENT, CUT, SCHEDULING, COST_SHARING)}


def play(rule: GameRule, inst, mech: CounterMechanism, strategy, splits: int = 1) -> PlayTrace:
    """Play one game in arrival order against a counter mechanism.

    Each player sees her slice of the release that the previous update
    returned (the mechanism's ``current`` for the first player), the strategy
    picks an action, and the action's update is fed to the counter. With
    ``splits`` > 1 (discretized continuous investments) a player places
    ``splits`` increments of 1/splits, each at her displayed counts plus her
    own running allocation; her utilities are the Riemann sums of the
    increments and the counter sees one combined update. ``splits=1`` is
    unit-demand play.
    """
    if splits < 1:
        raise ParameterError(f"splits must be >= 1, got {splits}")
    if splits > 1 and rule is not RESOURCE:
        raise ParameterError("fractional investments apply to the resource game only")
    rule.check_instance(inst)
    dim = rule.dim(inst)
    _check_mechanism(mech, dim, inst.n, rule.bound(inst))
    strategy.start(rule, inst)
    step = 1.0 / splits
    release = mech.current  # then the release each update returns
    n, k = inst.n, len(rule.view(release, 0))
    shown, true_before = np.empty((n, k)), np.empty((n, k))
    realized, perceived = np.empty(n), np.empty(n)
    actions = []
    picks, seen_gains, true_gains = [], [], []  # one player's increments when splits > 1
    for i in range(n):
        shown[i] = displayed = rule.view(release, i)
        true_before[i] = before = rule.view(mech.true_sums, i)
        choices = rule.actions(inst, i)
        update = np.zeros(dim)
        seen, at_true = displayed, before
        for part in range(splits):
            if part:
                own = rule.view(update, i)
                seen, at_true = displayed + own, before + own
            a = strategy.choose_action(rule, inst, i, choices, seen)
            if a not in choices:
                raise ValidationError(f"strategy chose action {a} outside player {i}'s "
                                      f"actions {choices}")
            seen_gain = step * rule.utility(inst, i, a, seen)
            true_gain = step * rule.utility(inst, i, a, at_true)
            rule.add_update(update, inst, i, a, step)
            if splits == 1:
                break
            picks.append(a)
            seen_gains.append(seen_gain)
            true_gains.append(true_gain)
        else:
            # the action the player invested in most, ties to the lowest index
            a = max(sorted(set(picks)), key=picks.count)
            seen_gain, true_gain = math.fsum(seen_gains), math.fsum(true_gains)
            del picks[:], seen_gains[:], true_gains[:]
        actions.append(a)
        # + 0.0 stores a lone gain as a one-term fsum would: -0.0 becomes 0.0
        realized[i], perceived[i] = true_gain + 0.0, seen_gain + 0.0
        release = mech.update(update)
    final = mech.true_sums
    rule.settle(inst, actions, final, realized)
    welfare = math.fsum(realized)
    return PlayTrace(
        rule=rule,
        actions=actions,
        displayed=shown,
        true_before=true_before,
        realized=realized,
        perceived=perceived,
        final_usage=rule.usage(actions, final),
        social_welfare=welfare,
        perceived_welfare=math.fsum(perceived),
        metric=welfare if splits > 1 else rule.value(inst, actions),
    )


# one object per name: the benchmark's timing shims rebind each by identity
play_resource_sharing = functools.partial(play, RESOURCE)
play_resource_sharing_fractional = functools.partial(play, RESOURCE)  # takes ``splits``
play_future_dependent = functools.partial(play, FUTURE_DEPENDENT)
play_cut = functools.partial(play, CUT)
play_scheduling = functools.partial(play, SCHEDULING)
play_cost_sharing = functools.partial(play, COST_SHARING)


def verify_trace(trace: PlayTrace) -> None:
    """Raise ValidationError unless the realized utilities of a play add up
    to its metric: the welfare, twice the cut or the total cost as their
    sum, the makespan as the worst realized load, within the rule's ``tol``
    (exactly for resource, future-dependent and cut play)."""
    total = trace.rule.realized_total(trace)
    if not abs(total - trace.metric) <= trace.rule.tol:
        raise ValidationError(f"{trace.rule.name} realized utilities give {total!r}, "
                              f"not the metric {trace.metric!r}")


__all__ = [
    "ValueCurve",
    "ResourceSharingInstance",
    "CutInstance",
    "SchedulingInstance",
    "CostSharingInstance",
    "PlayTrace",
    "GameRule",
    "RESOURCE",
    "FUTURE_DEPENDENT",
    "CUT",
    "SCHEDULING",
    "COST_SHARING",
    "GAMES",
    "play",
    "verify_trace",
]
