"""Private and baseline counter-vector mechanisms behind one streaming interface.

A mechanism observes one update vector per time step (entries nonnegative,
l1 norm at most the declared update bound, 1.0 for simplex updates) and
releases one estimate vector per time step. Each mechanism carries a declared
accuracy envelope (alpha, beta, gamma): with probability at least 1 - gamma,
at every step every released coordinate y lies in
[x/alpha - beta, alpha*x + beta] where x is the true prefix sum.

Mechanisms:

* ``TreeSum``       -- binary-tree counter; each estimate is the true prefix sum
                       plus the noise of at most ceil(log2 n)+1 dyadic nodes.
* ``FTSum``         -- two-phase counter: a flag phase that pays privacy budget
                       only at geometrically spaced threshold crossings (sparse
                       vector technique), then a handoff to an embedded TreeSum.
* ``PerfectCounter`` / ``EmptyCounter`` -- exact and all-zero baselines.

Wrappers reshape releases while updating the declared envelope:
``UnderestimatorWrapper`` (never exceeds the true count), ``MonotoneWrapper``
(integral, unit steps), ``ZeroFailureWrapper`` (clamps into the envelope using
the true count, trading the failure mass gamma into the privacy delta).
``UniformWarmupCounter`` shows uniform noise to the first players, then the
releases of the mechanism it wraps.

All logarithms here are base 2, matching the binary-tree depth.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StateError, ValidationError
from .noise import RandomSource, laplace

logger = logging.getLogger(__name__)

_L1_TOL = 1e-9
_NOISE_BLOCK = 1024
# validate_update tests up to _NARROW entries as Python floats, wider updates
# by an argmin and a dot. Per call on a row view (best of 9 x 50,000; Python
# 3.11, numpy 2.4, x86-64): floats 0.31 us at width 2, 0.49 at 10, 0.69 at
# 20, 0.81 at 24; the dot 0.77 at any width; an argmin and add.reduce 0.92-0.98.
# The dot is the array method: it makes the BLAS call of np.dot but skips the
# array-function dispatch, 0.29 against 0.43 us at width 32.
_NARROW = 20
_ONES = {}  # width -> the row of ones the dot sums against


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) differential-privacy budget; epsilon may be math.inf."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 <= self.delta < 1.0:
            raise ParameterError(f"delta must lie in [0, 1), got {self.delta}")


@dataclass(frozen=True)
class AccuracyEnvelope:
    """(alpha, beta, gamma) accuracy contract: y in [x/alpha - beta, alpha x + beta]."""

    alpha: float
    beta: float
    gamma: float = 0.0

    def __post_init__(self):
        if not 1.0 <= self.alpha < math.inf:
            raise ParameterError(f"alpha must be finite and >= 1, got {self.alpha}")
        if not 0.0 <= self.beta < math.inf:
            raise ParameterError(f"beta must be finite and nonnegative, got {self.beta}")
        if not 0.0 <= self.gamma < 1.0:
            raise ParameterError(f"gamma must lie in [0, 1), got {self.gamma}")

    def lower(self, x):
        return np.asarray(x, dtype=float) / self.alpha - self.beta

    def upper(self, x):
        return self.alpha * np.asarray(x, dtype=float) + self.beta


def validate_update(a, dim: int, bound: float = 1.0) -> np.ndarray:
    """Check membership in the (bound-scaled) simplex and return a float array.

    Nonnegative entries with a bounded sum are each bounded, so the smallest
    entry and the sum accept every valid update: up to ``_NARROW`` entries as
    Python floats (``min`` returns a NaN only from the front, but a NaN makes
    the sum NaN), beyond by one argmin (the smallest entry or the first NaN)
    and one dot with a row of ones. Only a failing update reaches the checks
    that name what is wrong, the bound's first.
    """
    arr = np.asarray(a, dtype=float)
    if arr.shape == (dim,):
        if dim <= _NARROW:
            vals = arr.tolist()
            if min(vals) >= 0 and sum(vals) <= bound + _L1_TOL:
                return arr
        else:
            ones = _ONES.get(dim)
            if ones is None:
                ones = _ONES[dim] = np.ones(dim)
            if arr[arr.argmin()] >= 0 and arr.dot(ones) <= bound + _L1_TOL:
                return arr
    if not 0.0 < bound < math.inf:
        raise ParameterError(f"update bound must be finite and positive, got {bound}")
    if arr.shape != (dim,):
        raise ValidationError(f"update must have shape ({dim},), got {arr.shape}")
    if np.any(arr < 0):
        raise ValidationError("update entries must be nonnegative")
    if np.any(arr > bound + _L1_TOL):
        raise ValidationError(f"update entries must be <= {bound}")
    if np.any(np.isnan(arr)):
        raise ValidationError("update entries must be finite")
    if float(arr.sum()) > bound + _L1_TOL:
        raise ValidationError(f"update l1 norm {arr.sum():.6g} exceeds bound {bound}")
    return arr


def tree_levels(n: int) -> int:
    """Number of dyadic levels, ceil(log2 n) + 1 (a single node for n = 1)."""
    return 1 if n <= 1 else math.ceil(math.log2(n)) + 1


def treesum_error_bound(n: int, m: int, eps: float, gamma: float, c_tree: float = 4.0) -> float:
    """Declared all-steps additive error bound for TreeSum.

    c_tree * log2(n) * log2(n*m/gamma) / eps, holding with probability at
    least 1 - gamma over all n*m estimates. c_tree is implementation-chosen
    (default 4.0), not theory-given; it empirically dominates the observed
    tail at the acceptance-test parameters.
    """
    return c_tree * max(1.0, math.log2(n)) * math.log2(n * m / gamma) / eps


class CounterMechanism:
    """Streaming counter base: validates updates, tracks true sums, releases estimates.

    States are single-owner and mutated sequentially; the stream is inherently
    ordered. ``current`` is the most recent release (zeros before any update).
    The innermost mechanism of a chain owns the true sums; wrappers, and FTSum
    over its embedded tree, hold the same array and clear ``_owns_true``.
    """

    def __init__(self, n: int, m: int, budget: PrivacyBudget,
                 envelope: AccuracyEnvelope, update_bound: float = 1.0):
        if n < 1 or m < 1:
            raise ParameterError(f"n must be >= 1 and m must be >= 1, got n={n}, m={m}")
        if not 0.0 < update_bound < math.inf:
            raise ParameterError(f"update bound must be finite and positive, got {update_bound}")
        self.horizon = int(n)
        self.dim = int(m)
        self.budget = budget
        self.envelope = envelope
        self.update_bound = float(update_bound)
        self._t = 0
        self._true = np.zeros(self.dim)
        self._owns_true = True
        self._current = np.zeros(self.dim)

    @property
    def t(self) -> int:
        return self._t

    @property
    def true_sums(self) -> np.ndarray:
        """True prefix sums after the last update (diagnostics / wrappers)."""
        return self._true.copy()

    @property
    def current(self) -> np.ndarray:
        """Most recent released estimate (zeros before the first update)."""
        return self._current.copy()

    def update(self, a) -> np.ndarray:
        """Feed one update vector; returns this step's released estimate."""
        if self._t >= self.horizon:
            raise StateError(f"update past horizon n={self.horizon}")
        a = validate_update(a, self.dim, self.update_bound)
        self._t += 1
        if self._owns_true:
            self._true += a
        self._current = self._step(a)
        return self._current.copy()

    def _step(self, a: np.ndarray) -> np.ndarray:
        """This step's release as a float array (the base class keeps it)."""
        raise NotImplementedError


class TreeSum(CounterMechanism):
    """Binary-tree counter over a vector stream.

    One shared budget serves all m coordinates because the l1 sensitivity of
    each partial sum is 1 (updates live in the simplex); per-node noise has
    scale update_bound * levels / epsilon with levels = ceil(log2 n) + 1.
    Releases sum only even-index nodes, and step t ends one: (L, (t >> L) - 1)
    with L = lowbit(t), whose noise is row t - 1 of one (n, m) Laplace stream.
    Rows are drawn from the single-owner source in blocks of at most
    ``_NOISE_BLOCK`` as steps reach them. ``_cover_block`` turns each block
    into a table of its steps' cover noises (integer bit arithmetic and
    strided adds, no numpy-2-only call), so a step adds one table row to the
    true sums. Releases do not depend on the block size. An update still
    touches at most ``levels`` released nodes, so eps is unchanged.
    """

    def __init__(self, n: int, m: int, eps: float, rng: RandomSource, *,
                 gamma: float = 0.1, c_tree: float = 4.0, update_bound: float = 1.0):
        budget = PrivacyBudget(float(eps))
        if not 0.0 < gamma < 1.0:
            raise ParameterError(f"gamma must lie in (0, 1), got {gamma}")
        if not 0.0 < c_tree < math.inf:
            raise ParameterError(f"c_tree must be finite and positive, got {c_tree}")
        super().__init__(n, m, budget, None, update_bound)
        # beta is defined once the base class has checked n and m
        beta = treesum_error_bound(n, m, budget.epsilon, gamma, c_tree)
        self.envelope = AccuracyEnvelope(1.0, beta, 0.0 if budget.epsilon == math.inf else gamma)
        self.rng = rng
        self.levels = tree_levels(self.horizon)
        self.node_scale = update_bound * self.levels / budget.epsilon
        if update_bound != 1.0:
            logger.info("TreeSum noise scaled by update bound B=%.6g", update_bound)
        self._rows = None  # the cover noise of the block holding step t, made at its first step
        # Slot l holds the cover noise of the last step before the block whose
        # lowest set bit is l; the extra last slot stays zero and stands for
        # the empty cover of 0.
        self._covers = np.zeros((self.levels + 1, self.dim))

    def _cover_block(self, t0: int) -> np.ndarray:
        """Draw the noise rows of the block starting at step t0 and turn each,
        in place, into the cover noise of its step.

        With L = lowbit(t), cover(t) = cover(t - 2^L) + node (L, (t >> L) - 1),
        the row of t. A level's steps are every 2^(L+1)-th row and t - 2^L has
        a higher lowest bit (or is 0), so levels go highest first, one strided
        add each; only a level's first row can need a cover from before the
        block, which slot lowbit(t - 2^L) holds. The slots take each level's
        last row only after the whole block, as a lower level may still read
        one. The adds run from 0.0, highest covering node first, so releases
        are bit-identical to summing the covering nodes in a loop.
        """
        rows = laplace(self.node_scale, self.rng,
                       size=(min(_NOISE_BLOCK, self.horizon - t0 + 1), self.dim))
        k = len(rows)
        lasts = []
        for level in range(self.levels - 1, -1, -1):
            half, step = 1 << level, 2 << level
            first = (half - t0) % step  # row of the block's first step at this level
            if first >= k:
                continue
            lasts.append((level, first + (k - 1 - first) // step * step))
            if first < half:
                prev = t0 + first - half
                rows[first] += self._covers[(prev & -prev).bit_length() - 1]
                first += step
            rows[first::step] += rows[first - half:k - half:step]
        for level, last in lasts:
            self._covers[level] = rows[last]
        return rows

    def _step(self, a: np.ndarray) -> np.ndarray:
        row = (self._t - 1) % _NOISE_BLOCK
        if row == 0:
            self._rows = self._cover_block(self._t)
        return self._true + self._rows[row]


def ftsum_flag_count(n: int, m: int, eps: float, alpha: float, gamma: float,
                     c_tree: float) -> int:
    """Phase-switch flag count k = ceil(log_alpha(alpha/(alpha-1) * c_tree * log2(nm/gamma)/eps)).

    Clamped to k >= 1 for degenerate parameters (tiny n or infinite eps).
    """
    arg = alpha / (alpha - 1.0) * c_tree * math.log2(n * m / gamma) / eps
    raw = math.ceil(math.log(arg, alpha)) if arg > 1.0 else 0
    if raw < 1:
        logger.debug("FTSum flag count k=%d clamped to 1 (degenerate parameters)", raw)
        return 1
    return raw


def ftsum_phase_one_bound(n: int, m: int, k: int, eps_prime: float, gamma: float) -> float:
    """Documented phase-one additive error constant E1.

    Union bound over the at most m*(n + k + 2) Laplace(2/eps') draws of phase
    one: all stay within b = (2/eps') * ln(2*m*(n+k+2)/gamma) with probability
    at least 1 - gamma/2, so a flag fires within 2b of its threshold and the
    step estimate is off by at most 2b + log2(n).
    """
    draws = m * (n + k + 2)
    b = (2.0 / eps_prime) * math.log(2.0 * draws / gamma)
    return 2.0 * b + max(1.0, math.log2(n))


def _block_laplace(scale: float, rng: RandomSource):
    """Endless Laplace(scale) draws from ``rng``, served from refilled blocks.

    Equal to drawing them one at a time: bulk and scalar uniforms come off
    the generator in the same order and go through the same transform.
    Python floats keep the callers' arithmetic as it was.
    """
    while True:
        yield from laplace(scale, rng, size=_NOISE_BLOCK).tolist()


class FTSum(CounterMechanism):
    """Two-phase flag/tree counter with constant multiplicative error alpha.

    Per coordinate, phase one compares the noisy true sum against a noisy
    threshold log2(n) * alpha^flag; each exceedance raises the flag, redraws
    the threshold one geometric step up (fresh noise per comparison --
    sparse-vector hygiene), and the release steps to log2(n) * alpha^(flag-1)
    (0 while no flag is up). Once flag > k the coordinate permanently releases
    the embedded TreeSum, which is fed every update from t = 1 with budget
    eps/2. The per-comparison budget eps' = eps/(4m(k+1)) makes the ledger
    2m(k+1)*eps' + eps/2 close exactly at eps. Threshold and comparison noise
    come in blocks from the flag substream, which FTSum alone draws from, so
    the unused tail of a block is never seen. The embedded tree is built first
    and checks the parameters the two share (n, m, gamma, c_tree and the
    update bound); FTSum itself checks only eps and alpha.
    """

    def __init__(self, n: int, m: int, eps: float, alpha: float, gamma: float,
                 c_tree: float, rng: RandomSource, *, update_bound: float = 1.0):
        budget = PrivacyBudget(eps)
        if not 1.0 < alpha < math.inf:
            raise ParameterError(f"alpha must be finite and > 1, got {alpha}")
        self.tree = TreeSum(n, m, eps / 2.0, rng.substream(1), gamma=gamma, c_tree=c_tree,
                            update_bound=update_bound)
        k = ftsum_flag_count(n, m, eps, alpha, gamma, c_tree)
        eps_prime = eps / (4.0 * m * (k + 1))
        spent = 2.0 * m * (k + 1) * eps_prime + eps / 2.0
        assert spent <= eps * (1.0 + 1e-12), "FTSum budget ledger exceeds eps"
        beta = (ftsum_phase_one_bound(n, m, k, eps_prime, gamma)
                + treesum_error_bound(n, m, eps / 2.0, gamma / 2.0, c_tree))
        env_gamma = 0.0 if eps == math.inf else gamma
        super().__init__(n, m, budget, AccuracyEnvelope(alpha, beta, env_gamma), update_bound)
        self._true, self._owns_true = self.tree._true, False
        self.alpha = alpha
        self.k = k
        self.eps_prime = eps_prime
        self.log_n = math.log2(n) if n > 1 else 0.0
        self._flag_noise = _block_laplace(2.0 * update_bound / eps_prime, rng.substream(0))
        self.flags = np.zeros(m, dtype=int)
        self.taus = np.array([self.log_n + next(self._flag_noise) for _ in range(m)])
        self._phase_one = list(range(m))  # ascending; a coordinate leaves once flag > k

    def in_phase_one(self) -> np.ndarray:
        """Boolean mask of coordinates still in the flag phase."""
        return self.flags <= self.k

    def _phase_one_value(self, flag: int) -> float:
        return 0.0 if flag == 0 else self.log_n * self.alpha ** (flag - 1)

    def _step(self, a: np.ndarray) -> np.ndarray:
        """Release the embedded tree, overwritten on the flag-phase coordinates.

        Only coordinates still in the flag phase are visited, in ascending
        order, so comparison and threshold noise are drawn in the same order
        as a loop over all coordinates that skips the handed-off ones. A
        coordinate whose flag passes k leaves the list after this step.
        """
        y = self.tree.update(a)  # adds ``a`` to the true sums FTSum shares
        raised = False
        for r in self._phase_one:
            noisy = self._true[r] + next(self._flag_noise)
            if noisy > self.taus[r]:
                raised = True
                self.flags[r] += 1
                self.taus[r] = (self.log_n * self.alpha ** self.flags[r]
                                + next(self._flag_noise))
            y[r] = self._phase_one_value(int(self.flags[r]))
        if raised:
            self._phase_one = [r for r in self._phase_one if self.flags[r] <= self.k]
        return y


class PerfectCounter(CounterMechanism):
    """Releases exact prefix sums; envelope (1, 0, 0), a valid underestimator."""

    def __init__(self, n: int, m: int, update_bound: float = 1.0):
        super().__init__(n, m, PrivacyBudget(math.inf),
                         AccuracyEnvelope(1.0, 0.0, 0.0), update_bound)

    def _step(self, a: np.ndarray) -> np.ndarray:
        return self._true.copy()


class EmptyCounter(CounterMechanism):
    """Releases the all-zero vector at every step; envelope (1, n*B, 0)."""

    def __init__(self, n: int, m: int, update_bound: float = 1.0):
        super().__init__(n, m, PrivacyBudget(math.inf), None, update_bound)
        self.envelope = AccuracyEnvelope(1.0, self.horizon * self.update_bound, 0.0)

    def _step(self, a: np.ndarray) -> np.ndarray:
        return np.zeros(self.dim)


class _Wrapper(CounterMechanism):
    """Base for wrappers: feeds the inner mechanism, transforms its releases
    (in place: ``inner.update`` returns a fresh array).

    Step operands are width-m rows built before the first ``_transform``:
    numpy 2 takes an array operand faster than a Python float (0.28 against
    0.42 us per subtraction at m = 32; Python 3.11, numpy 2.4, x86-64). A
    scale of exactly 1 is skipped; ``x / 1.0`` and ``1.0 * x`` are ``x`` bit
    for bit, NaN, infinities and -0.0 included."""

    _unit_steps = False  # the envelope needs counts that grow by at most 1 per step

    def __init__(self, inner: CounterMechanism, envelope: AccuracyEnvelope,
                 budget: PrivacyBudget | None = None):
        if self._unit_steps and inner.update_bound > 1.0:
            raise ParameterError(f"{type(self).__name__} moves a count by at most 1 per update; "
                                 f"it needs update bound <= 1, got {inner.update_bound:g}")
        super().__init__(inner.horizon, inner.dim, budget or inner.budget,
                         envelope, inner.update_bound)
        if inner.t != 0:
            raise StateError("wrappers must be applied before any update")
        self.inner = inner
        self._true, self._owns_true = inner._true, False
        self._current = self._transform(inner.current)

    def _transform(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _step(self, a: np.ndarray) -> np.ndarray:
        return self._transform(self.inner.update(a))


class UnderestimatorWrapper(_Wrapper):
    """Shift y' = (y - beta)/alpha: envelope (alpha, beta, 0) becomes an
    (alpha^2, 2 beta/alpha, 0) underestimator (y' <= true count always).
    Subtracts a row of beta, then divides by a row of alpha unless alpha = 1."""

    def __init__(self, inner: CounterMechanism):
        env = inner.envelope
        if env.gamma != 0.0:
            raise ParameterError(
                "underestimator wrapper needs a zero-failure (gamma = 0) envelope; "
                "apply ZeroFailureWrapper first")
        self._alpha = None if env.alpha == 1.0 else np.full(inner.dim, env.alpha)
        self._beta = np.full(inner.dim, env.beta)
        super().__init__(inner, AccuracyEnvelope(env.alpha ** 2, 2.0 * env.beta / env.alpha, 0.0))

    def _transform(self, y: np.ndarray) -> np.ndarray:
        y -= self._beta
        if self._alpha is not None:
            y /= self._alpha
        return y


class MonotoneWrapper(_Wrapper):
    """Nearest monotone integer sequence: starts at 0 and increments a
    coordinate by exactly 1 iff the wrapped noisy value exceeds the current
    reported value by more than 1/2. Envelope beta grows by 1.

    Over an underestimator the result still underestimates integer true
    counts: the reported value stays within 1/2 above the inner value, which
    never exceeds the count. Unit steps keep up only with an update bound of
    at most 1. A step compares against the report plus a row of 1/2."""

    _unit_steps = True

    def __init__(self, inner: CounterMechanism):
        self._half = np.full(inner.dim, 0.5)
        env = inner.envelope
        super().__init__(inner, AccuracyEnvelope(env.alpha, env.beta + 1.0, env.gamma))

    def _transform(self, y: np.ndarray) -> np.ndarray:
        # steps the previous release in place; the base class copies it out
        self._current += y > self._current + self._half
        return self._current


class ZeroFailureWrapper(_Wrapper):
    """Clamp each release into ``envelope`` (default: the inner mechanism's
    declared one) using the true count, making the accuracy guarantee hold
    with probability 1; the privacy delta absorbs the inner failure mass gamma.

    Passing a tighter target envelope is allowed: clamping enforces it
    deterministically, which is how experiments realize counters with chosen
    small (alpha, beta) instead of the loose analytic constants.
    The bounds use rows of the target's alpha and beta; at alpha = 1 they are
    x - beta and x + beta.
    """

    def __init__(self, inner: CounterMechanism, envelope: AccuracyEnvelope | None = None):
        env = envelope or inner.envelope
        target = AccuracyEnvelope(env.alpha, env.beta, 0.0)
        budget = PrivacyBudget(inner.budget.epsilon,
                               min(inner.budget.delta + inner.envelope.gamma, 1.0 - 1e-15))
        self._alpha = None if env.alpha == 1.0 else np.full(inner.dim, env.alpha)
        self._beta = np.full(inner.dim, env.beta)
        super().__init__(inner, target, budget)

    def _transform(self, y: np.ndarray) -> np.ndarray:
        # clip into [x/alpha - beta, alpha*x + beta]; x is zero before the first update
        x, alpha = self._true, self._alpha
        lo, hi = (x, x) if alpha is None else (x / alpha, alpha * x)
        np.maximum(y, lo - self._beta, out=y)
        return np.minimum(y, hi + self._beta, out=y)


class UniformWarmupCounter(_Wrapper):
    """Displays an independent uniform draw on [0, warmup] per coordinate to
    each of the first `warmup` players, then the inner mechanism's releases.
    The inner mechanism is fed every update from the start. Beta grows by
    `warmup`, which covers counts only under an update bound of at most 1."""

    _unit_steps = True

    def __init__(self, inner: CounterMechanism, warmup: int, rng: RandomSource):
        if not isinstance(warmup, (int, np.integer)) or isinstance(warmup, bool) or warmup < 0:
            raise ParameterError(f"warmup must be an integer >= 0, got {warmup!r}")
        self.warmup = int(warmup)
        self._rng = rng
        env = inner.envelope
        super().__init__(inner, AccuracyEnvelope(env.alpha, env.beta + self.warmup, env.gamma))

    def _transform(self, y: np.ndarray) -> np.ndarray:
        if self._t < self.warmup:
            return self.warmup * self._rng.uniform(size=self.dim)
        return y


def envelope_check(true_xs, released_ys, env: AccuracyEnvelope, tol: float = 1e-12):
    """Check a whole trace against an envelope.

    Returns (ok, violations) where violations is a boolean (steps, m) mask of
    the entries that fail either bound (a NaN release fails both).
    """
    xs = np.atleast_2d(np.asarray(true_xs, dtype=float))
    ys = np.atleast_2d(np.asarray(released_ys, dtype=float))
    if xs.shape != ys.shape:
        raise ValidationError(f"trace shapes differ: {xs.shape} vs {ys.shape}")
    bad = ~((ys >= env.lower(xs) - tol) & (ys <= env.upper(xs) + tol))
    return not bool(bad.any()), bad


__all__ = [
    "PrivacyBudget",
    "AccuracyEnvelope",
    "validate_update",
    "tree_levels",
    "treesum_error_bound",
    "ftsum_flag_count",
    "ftsum_phase_one_bound",
    "CounterMechanism",
    "TreeSum",
    "FTSum",
    "PerfectCounter",
    "EmptyCounter",
    "UnderestimatorWrapper",
    "MonotoneWrapper",
    "ZeroFailureWrapper",
    "UniformWarmupCounter",
    "envelope_check",
]
