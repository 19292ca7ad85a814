"""Player decision rules.

``Greedy`` maximizes utility (or minimizes cost) against the displayed counter
values, the natural play when counters are exact. ``is_undominated`` tests an
action against the interval belief set induced by a worst-case (alpha, beta, 0)
envelope: an action is dominated only if some alternative beats it under every
consistent state. Scripted strategies realize the registered adversarial
constructions behind the lower-bound scenarios; they only play, and the
scenarios that claim the plays undominated check it.

Strategies are stateless decision functions (scripted ones validate the
instance at game start) and can be shared freely across trials.
"""

from __future__ import annotations

import math

from .counters import AccuracyEnvelope
from .errors import ParameterError, ValidationError
from .games import CUT, FUTURE_DEPENDENT, RESOURCE, SCHEDULING, GameRule


def belief_range(displayed: float, envelope: AccuracyEnvelope):
    """The true counts x >= 0 whose envelope [x/alpha - beta, alpha*x + beta]
    holds the displayed value y: [max(0, (y - beta)/alpha), alpha*(y + beta)]."""
    lo = max(0.0, (displayed - envelope.beta) / envelope.alpha)
    hi = envelope.alpha * (displayed + envelope.beta)
    return lo, max(lo, hi)


def is_undominated(action: int, action_set, displayed, envelope: AccuracyEnvelope,
                   curves) -> bool:
    """True iff no alternative's worst-case value strictly exceeds this
    action's best-case value over the belief ranges. Requires gamma = 0: the
    interval beliefs are only sound when the envelope holds surely."""
    if envelope.gamma != 0.0:
        raise ParameterError("undominatedness needs a zero-failure envelope (gamma = 0)")
    if action not in action_set:
        raise ValidationError(f"action {action} not in the action set")
    lo_own, _ = belief_range(float(displayed[action]), envelope)
    best_case = curves[action].value_at(lo_own)
    for r in action_set:
        if r == action:
            continue
        _, hi_alt = belief_range(float(displayed[r]), envelope)
        worst_case_alt = curves[r].value_at(hi_alt)
        if worst_case_alt > best_case:
            return False
    return True


class Strategy:
    """Decision-rule interface; :func:`games.play` calls ``choose_action``
    with the game's rule, the instance, the player, her actions in tie-break
    order, and her displayed counts."""

    def start(self, rule: GameRule, instance) -> None:
        """Called once before play with the game's rule and an instance of its
        ``instance_type``; scripted strategies check the instance's shape here."""

    def choose_action(self, rule, inst, player, actions, displayed):
        raise NotImplementedError


class Greedy(Strategy):
    """Best perceived utility against the displayed counts in every game
    (least cost where the rule's utility is a cost); ties to the first
    action in order."""

    def choose_action(self, rule, inst, player, actions, displayed):
        sign = -1.0 if rule.utility_is_cost else 1.0
        best, best_u = None, -math.inf
        for a in actions:
            u = sign * rule.utility(inst, player, a, displayed)
            if u > best_u:
                best, best_u = a, u
        return best


class BeliefGreedy(Greedy):
    """Greedy against belief-adjusted counts: displayed values are shifted by a
    fixed offset (a crude consistent belief) before the greedy rule applies."""

    def __init__(self, offset: float):
        self.offset = float(offset)

    def choose_action(self, rule, inst, player, actions, displayed):
        shifted = [float(y) + self.offset for y in displayed]
        return super().choose_action(rule, inst, player, actions, shifted)


class _Script(Strategy):
    name = "?"
    rule: GameRule              # the game the script plays

    def start(self, rule: GameRule, instance) -> None:
        if rule is not self.rule:
            raise ParameterError(f"script '{self.name}' plays the {self.rule.name} game, "
                                 f"not {rule.name}")
        self.check(instance)

    def check(self, instance) -> None:
        raise NotImplementedError


class FearATwin(_Script):
    """All players pick the shared last resource, each fearing that a twin
    already burned her own jackpot or that its value fell to the shared level.
    Undominated with empty counters, where any belief is consistent."""

    name = "fear-a-twin"
    rule = RESOURCE

    def check(self, instance) -> None:
        shared = instance.n
        if instance.m != shared + 1 or any(shared not in acts for acts in instance.action_sets):
            raise ParameterError("fear-a-twin expects one resource per player plus a shared "
                                 "last resource in every action set")

    def choose_action(self, rule, inst, player, actions, displayed):
        return inst.m - 1


class AllBlueCycle(_Script):
    """On a cycle, every node plays blue while blue remains undominated (an
    uncolored neighbor may still turn red); the last node, boxed in by blue
    neighbors, is forced to red. Requires exact displayed counts."""

    name = "all-blue-cycle"
    rule = CUT

    def check(self, instance) -> None:
        n = instance.n
        if n < 4 or n % 2 != 0:
            raise ParameterError("all-blue-cycle expects an even cycle with >= 4 nodes")
        expected = sorted((i, (i + 1) % n) if i < (i + 1) % n else ((i + 1) % n, i)
                          for i in range(n))
        if instance.edges != expected:
            raise ParameterError("all-blue-cycle expects exactly the cycle's edges")

    def choose_action(self, rule, inst, player, actions, displayed):
        # blue is dominated only when red beats it in every completion:
        # blue's ceiling (red neighbors + uncolored) below red's floor;
        # players arrive in index order, so the uncolored neighbors are j > i
        uncolored = sum(1 for j in inst.neighbors(player) if j > player)
        red_count, blue_count = float(displayed[0]), float(displayed[1])
        blue_dominated = blue_count > red_count + uncolored
        return 0 if blue_dominated else 1


class PessimisticScheduler(_Script):
    """First player parks her free job on the expensive machine, undominated
    because a heavy second job may grab the free one; everyone after is greedy."""

    name = "pessimistic-scheduler"
    rule = SCHEDULING

    def check(self, instance) -> None:
        if instance.n < 2 or instance.m < 2 or instance.costs[0, 0] != 0.0:
            raise ParameterError(
                "pessimistic-scheduler expects player 0 to have a free first machine")

    def choose_action(self, rule, inst, player, actions, displayed):
        if player == 0:
            return 1
        return Greedy().choose_action(rule, inst, player, actions, displayed)


class PrivateSetBeliefs(_Script):
    """Market sharing: player i believes everyone after her cares only about
    her own market, making the shared market strictly better; all pile onto it."""

    name = "private-set-beliefs"
    rule = FUTURE_DEPENDENT

    def check(self, instance) -> None:
        n = instance.n
        if instance.m != n + 1 or any(instance.action_sets[i] != [0, i + 1] for i in range(n)):
            raise ParameterError(
                "private-set-beliefs expects shared market 0 plus one private market per player")

    def choose_action(self, rule, inst, player, actions, displayed):
        return 0


_SCRIPTS = {
    cls.name: cls
    for cls in (FearATwin, AllBlueCycle, PessimisticScheduler, PrivateSetBeliefs)
}


def scripted(name: str) -> Strategy:
    """Instantiate a registered scripted strategy by name."""
    if name not in _SCRIPTS:
        raise ParameterError(
            f"unknown scripted strategy '{name}' (have: {', '.join(sorted(_SCRIPTS))})")
    return _SCRIPTS[name]()


def make_strategy(spec: str) -> Strategy:
    """Parse a CLI strategy spec: 'greedy', 'scripted:<name>', or 'belief:<offset>'."""
    if spec == "greedy":
        return Greedy()
    if spec.startswith("scripted:"):
        return scripted(spec.split(":", 1)[1])
    if spec.startswith("belief:"):
        try:
            offset = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ParameterError(f"belief offset must be a number: {exc}") from exc
        if not math.isfinite(offset):
            raise ParameterError(f"belief offset must be finite, got {offset}")
        return BeliefGreedy(offset)
    raise ParameterError(f"unknown strategy spec '{spec}'")


__all__ = [
    "belief_range",
    "is_undominated",
    "Strategy",
    "Greedy",
    "BeliefGreedy",
    "scripted",
    "make_strategy",
]
