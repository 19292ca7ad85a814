"""Exact optimal-welfare computation for every game at desk scale.

These values are the denominators of all competitive ratios, so each solver is
exact within its size budget and refuses (``SizeError``) beyond it rather than
silently approximating. Resource sharing reduces to a maximum-weight matching
between players and per-resource value copies, which a matroid greedy with
augmenting paths solves exactly; the other games are enumerated
exhaustively (with a bipartite closed form for cut games, whose optimum then
cuts every edge). Scheduling prunes and cut doubles (see each solver), in
numpy chunks of at most ``CHUNK_ROWS`` assignments in the order of the plain
loop, and both keep the first optimum in that order as the witness.

Every ``OptResult`` witness re-evaluates to the reported value exactly: the
solvers compute values through the game rules' ``value``, the objective that
``games.play`` reports as ``PlayTrace.metric``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeError
from .games import (
    COST_SHARING,
    CUT,
    FUTURE_DEPENDENT,
    RESOURCE,
    SCHEDULING,
    CostSharingInstance,
    CutInstance,
    ResourceSharingInstance,
    SchedulingInstance,
)

MATCHING_COPY_BUDGET = 8 * 10 ** 6
BRUTE_FORCE_BUDGET = 10 ** 7
COVER_BUDGET = 10 ** 6
CHUNK_ROWS = 2 ** 16


@dataclass
class OptResult:
    value: float
    witness: object
    method: str


# Each game rule's ``value`` under the name the solvers call it by, which the
# benchmark's shims count; other callers use ``RULE.value``.
resource_assignment_value = RESOURCE.value
future_assignment_value = FUTURE_DEPENDENT.value
scheduling_makespan = SCHEDULING.value
cut_social_welfare = CUT.value
cost_sharing_total = COST_SHARING.value


# ---------------------------------------------------------------------------
# solvers


def opt_resource_sharing(inst: ResourceSharingInstance) -> OptResult:
    """Maximum-weight matching between players and the copies of each resource
    (copy k of resource r weighs v_r(k)), restricted to the action sets.

    The sets of copies that distinct players can take form a transversal
    matroid and the weights are nonnegative, so Edmonds' greedy is exact: take
    the copies by (-value, r, k) and keep each one an augmenting path admits,
    until every player is placed. A rejected copy marks its resource full,
    since all later copies of it have the same players and fail as well.
    Curves never increase, so the copies taken of a resource are worth what
    its first ones are, and ``resource_assignment_value`` of the witness is
    the maximum weight. The candidates number the sum of the action-set
    sizes, at most n*m, and that sum is what the budget bounds.
    """
    n, m = inst.n, inst.m
    allowed_by = [[] for _ in range(m)]
    for i, acts in enumerate(inst.action_sets):
        for r in acts:
            allowed_by[r].append(i)
    # copy k of resource r for k < len(allowed_by[r]); a stable sort of the
    # (r, k)-ordered candidates by -value is the (-value, r, k) order
    degrees = [len(players) for players in allowed_by]
    if sum(degrees) > MATCHING_COPY_BUDGET:
        raise SizeError(f"matching over {sum(degrees)} candidate copies exceeds "
                        "the exact-mode budget")
    values = np.concatenate([
        curve.values[np.minimum(np.arange(d), len(curve) - 1)]
        for curve, d in zip(inst.curves, degrees)])
    order = np.argsort(-values, kind="stable")
    candidates = np.repeat(np.arange(m), degrees)[order].tolist()
    where = [-1] * n           # resource of each player, -1 while free
    free_from = [0] * m        # allowed_by[r][:free_from[r]] are all placed
    full = [False] * m
    placed = 0
    for r in candidates:
        if full[r]:
            continue
        if _augment(r, allowed_by, where, free_from):
            placed += 1
            if placed == n:
                break
        else:
            full[r] = True
    assert placed == n, "every player has an action, so the greedy places all"
    return OptResult(resource_assignment_value(inst, where), where, "matching")


def _augment(r: int, allowed_by: list, where: list, free_from: list) -> bool:
    """Give resource r one more player along a shortest augmenting path.

    Breadth-first over resources from r: resource x ends the search at its
    first free player; otherwise each player on an unvisited resource y
    records ``via[y] = (x, p)``. On success the players shift back along the
    path, so r gains one player and every other resource keeps its count.
    """
    via = {r: None}
    queue = [r]
    for x in queue:
        players = allowed_by[x]
        j = free_from[x]
        while j < len(players) and where[players[j]] >= 0:
            j += 1
        free_from[x] = j    # placed players never become free again
        if j < len(players):
            p = players[j]
            while True:
                where[p] = x
                if x == r:
                    return True
                x, p = via[x]
        for p in players:
            y = where[p]
            if y not in via:
                via[y] = (x, p)
                queue.append(y)
    return False


def opt_scheduling(inst: SchedulingInstance) -> OptResult:
    """Exact minimum makespan over the m^n assignments.

    The leading jobs are enumerated in Python; for each of their assignments
    the trailing ``tail`` jobs grow rows one job at a time, machine fastest,
    adding costs in job order as ``scheduling_makespan`` does. Loads only
    grow, so a row above the best makespan so far, or at it once a witness
    exists, cannot be the first optimum in product order and is dropped.
    """
    n, m = inst.n, inst.m
    if m ** n > BRUTE_FORCE_BUDGET:
        raise SizeError(
            f"{m}^{n} assignments exceed the brute-force budget; "
            "use scheduling_lower_bound for large instances")
    loads = np.zeros(m)     # greedy, each job where the makespan stays lowest, bounds it
    for row in inst.costs:
        q = int(np.maximum(loads + row, loads.max()).argmin())
        loads[q] += row[q]
    best, witness = loads.max(), None
    tail = n
    while m ** tail > CHUNK_ROWS:
        tail -= 1
    diag = np.arange(m)
    for head in itertools.product(range(m), repeat=n - tail):
        loads, index = np.zeros((1, m)), np.zeros(1, dtype=np.int64)
        for k, q in enumerate(head):
            loads[0, q] += inst.costs[k, q]
        for row in inst.costs[n - tail:]:
            spans = loads.max(axis=1)
            keep = spans <= best if witness is None else spans < best
            rows = np.count_nonzero(keep)
            if rows == 0:
                break
            loads = np.repeat(loads[keep], m, axis=0)
            loads.reshape(rows, m, m)[:, diag, diag] += row
            index = (index[keep, None] * m + diag).ravel()
        else:
            spans = loads.max(axis=1)
            row = int(spans.argmin())
            if spans[row] < best or witness is None and spans[row] == best:
                best = spans[row]
                witness = list(head) + [int(index[row]) // m ** (tail - 1 - j) % m
                                        for j in range(tail)]
    value = scheduling_makespan(inst, witness)
    assert value == best, "vectorised makespan differs from scheduling_makespan"
    return OptResult(value, witness, "brute-force")


def scheduling_lower_bound(inst: SchedulingInstance) -> float:
    """sum_k t*_k / m, a valid lower bound on the optimal makespan."""
    return float(inst.t_star.sum()) / inst.m


def _two_coloring(inst: CutInstance):
    """BFS 2-coloring; None if the graph is not bipartite."""
    colors = [-1] * inst.n
    for root in range(inst.n):
        if colors[root] >= 0:
            continue
        colors[root] = 0
        queue = [root]
        while queue:
            u = queue.pop()
            for v in inst.neighbors(u):
                if colors[v] < 0:
                    colors[v] = 1 - colors[u]
                    queue.append(v)
                elif colors[v] == colors[u]:
                    return None
    return colors


def opt_cut(inst: CutInstance) -> OptResult:
    """Exact maximum of 2 * cut size. Bipartite graphs (cycles of even length,
    complete bipartite, ...) use the closed form 2|E| with the 2-coloring as
    witness; everything else is enumerated over colorings: node 0 is red and
    node i >= 1 is bit i - 1. The cut sizes over the low nodes are built once
    by doubling, node i extending each coloring of nodes 1..i-1 red and blue;
    each chunk then fixes the high nodes, which add their low neighbours of
    the other color and the high-high edges they cut."""
    coloring = _two_coloring(inst)
    if coloring is not None:
        return OptResult(2.0 * len(inst.edges), coloring, "closed-form")
    n = inst.n
    free = n - 1
    if 2 ** free > BRUTE_FORCE_BUDGET:
        raise SizeError(f"2^{n} colorings exceed the brute-force budget")
    low = min(free, CHUNK_ROWS.bit_length() - 1)
    adj = np.zeros((n, n), dtype=np.int8)
    us, vs = np.array(inst.edges).T
    adj[us, vs] = adj[vs, us] = 1
    # blue[j, c]: node j's neighbours among nodes 1..low that coloring c paints blue
    blue = np.zeros((n, 2 ** low), dtype=np.int8)
    cuts = np.zeros(2 ** low, dtype=np.int32)
    for i in range(1, low + 1):
        half = 2 ** (i - 1)
        np.add(blue[:, :half], adj[:, i:i + 1], out=blue[:, half:2 * half])
        cuts[half:2 * half] = cuts[:half] + int(adj[i, :i].sum()) - blue[i, :half]
        cuts[:half] += blue[i, :half]
    low_degree = adj[:, :low + 1].sum(axis=1).tolist()
    high_edges = [(u, v) for u, v in inst.edges if u > low]
    best, best_bits = -1, 0
    chunk = np.empty_like(cuts)
    for high in range(2 ** (free - low)):
        colors = [0] * (low + 1) + [high >> k & 1 for k in range(free - low)]
        np.copyto(chunk, cuts)
        for j in range(low + 1, n):
            if colors[j]:
                chunk -= blue[j]
                chunk += low_degree[j]
            else:
                chunk += blue[j]
        row = int(chunk.argmax())
        cut = int(chunk[row]) + sum(colors[u] != colors[v] for u, v in high_edges)
        if cut > best:
            best, best_bits = cut, high << low | row
    witness = [0] + [(best_bits >> i) & 1 for i in range(free)]
    value = cut_social_welfare(inst, witness)
    assert value == 2.0 * best, "vectorised cut differs from cut_social_welfare"
    return OptResult(value, witness, "brute-force")


def opt_cost_sharing(inst: CostSharingInstance) -> OptResult:
    """Exact minimum total cost over set families covering all players; each
    player is then assigned her cheapest allowed chosen set."""
    n, m = inst.n, inst.m
    if 2 ** m > COVER_BUDGET:
        raise SizeError(f"2^{m} set families exceed the brute-force budget")
    player_masks = [sum(1 << s for s in acts) for acts in inst.action_sets]
    best, sets = math.inf, None
    for family in range(1, 2 ** m):
        if any(mask & family == 0 for mask in player_masks):
            continue
        chosen = [s for s in range(m) if family >> s & 1]
        cost = cost_sharing_total(inst, chosen)
        if cost < best:
            best, sets = cost, chosen
    assignment = []
    for acts in inst.action_sets:
        options = [s for s in acts if s in sets]
        assignment.append(min(options, key=lambda s: inst.set_costs[s]))
    # drop sets nobody uses; covering families never need them
    used = sorted(set(assignment))
    return OptResult(cost_sharing_total(inst, assignment), (used, assignment), "brute-force")


def opt_future_dependent(inst: ResourceSharingInstance) -> OptResult:
    """Exact maximum future-dependent welfare over all restricted assignments."""
    states = 1
    for acts in inst.action_sets:
        states *= len(acts)
        if states > BRUTE_FORCE_BUDGET:
            raise SizeError("future-dependent assignment space exceeds the brute-force budget")
    best, best_assign = -math.inf, None
    for assign in itertools.product(*inst.action_sets):
        value = future_assignment_value(inst, assign)
        if value > best:
            best, best_assign = value, list(assign)
    return OptResult(best, best_assign, "brute-force")


__all__ = [
    "OptResult",
    "opt_resource_sharing",
    "opt_scheduling",
    "scheduling_lower_bound",
    "opt_cut",
    "opt_cost_sharing",
    "opt_future_dependent",
    "BRUTE_FORCE_BUDGET",
]
