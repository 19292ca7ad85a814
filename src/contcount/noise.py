"""Seeded randomness and Laplace sampling shared by all mechanisms and experiments.

All randomness flows through :class:`RandomSource`, a thin wrapper over numpy's
counter-based Philox generator keyed by ``(seed, stream_id)``. Equal keys give
bit-identical sample sequences on every platform; distinct stream ids give
statistically independent streams, so parallel trials and embedded mechanisms
each derive their own substream instead of sharing state.

The Laplace sampler uses the inverse CDF (deterministic and portable, unlike
rejection sampling). Bulk draws are transformed in place, chunk by chunk,
so a draw of shape ``size`` allocates its result, a boolean mask of its zero
draws and one chunk of signs, nothing more. It is
simulation-grade: floating-point side channels of Laplace sampling, a known
attack surface for deployed DP systems, are not mitigated here.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_CHUNK = 4096          # entries per chunk of the in-place Laplace transform


def _splitmix64(x: int) -> int:
    """One SplitMix64 round; used to derive substream ids deterministically."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class RandomSource:
    """Deterministic random stream identified by (seed, stream_id).

    Single-owner: each mechanism or trial holds its own source and never
    shares it. ``zero_noise=True`` forces every Laplace draw to exactly 0 so
    mechanism bookkeeping can be tested against exact arithmetic.
    """

    def __init__(self, seed: int, stream_id: int = 0, zero_noise: bool = False):
        if not 0 <= int(seed) <= _MASK64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if not 0 <= int(stream_id) <= _MASK64:
            raise ParameterError(f"stream_id must be a 64-bit unsigned integer, got {stream_id}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self.zero_noise = bool(zero_noise)

    def substream(self, k: int) -> "RandomSource":
        """Derive an independent child stream (same seed, mixed stream id)."""
        child = _splitmix64((self.stream_id ^ _splitmix64(k & _MASK64)) & _MASK64)
        return RandomSource(self.seed, child, self.zero_noise)

    def uniform(self, size=None):
        """Uniform samples on [0, 1)."""
        return self.generator.random(size)

    def integers(self, low: int, high: int, size=None):
        return self.generator.integers(low, high, size=size)

    @functools.cached_property
    def generator(self) -> np.random.Generator:
        """Underlying numpy generator, for bulk draws in experiments. Built on
        first use: many sources only derive substreams and never draw."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))

    def __repr__(self) -> str:
        flag = ", zero_noise=True" if self.zero_noise else ""
        return f"RandomSource(seed={self.seed}, stream_id={self.stream_id}{flag})"


def _laplace_in_place(scale: float, u: np.ndarray) -> np.ndarray:
    """Overwrite u, C-contiguous draws in (-1/2, 1/2), with -scale*sign(u)*ln(1-2|u|).

    ``scale * log1p(-2|u|)`` given the sign of ``u + 0.0`` has the value and
    sign bit of its product with ``-scale * sign(u)``, +0.0 at u == +-0. The
    pass runs by chunks, so only one chunk of signs is allocated.
    """
    flat = u.reshape(-1)
    for start in range(0, flat.size, _CHUNK):
        part = flat[start:start + _CHUNK]
        sign = part + 0.0
        np.abs(part, out=part)
        part *= -2.0
        np.log1p(part, out=part)
        part *= scale
        np.copysign(part, sign, out=part)
    return u


def _laplace_from_uniform(scale: float, u):
    """Inverse-CDF Laplace sample(s) from u in (-1/2, 1/2): -scale*sign(u)*ln(1-2|u|).

    Works on a copy, so the caller's array is left as it was.
    """
    out = _laplace_in_place(scale, np.array(u, dtype=float))
    return float(out) if out.ndim == 0 else out


def laplace(scale: float, rng: RandomSource, size=None):
    """Sample from the Laplace distribution with mean 0 and the given scale.

    Returns exactly 0 when ``scale == 0`` or when the source is in zero-noise
    mode. ``size=None`` returns a float, otherwise an ndarray: the uniform
    draw, transformed in place.
    """
    if scale < 0:
        raise ParameterError(f"laplace scale must be nonnegative, got {scale}")
    if scale == 0 or rng.zero_noise:
        return 0.0 if size is None else np.zeros(size)
    # r == 0.0 would map to u = -1/2 and log(0); remap that measure-zero draw
    # to the median.
    r = np.asarray(rng.uniform(size=size))
    r[r == 0.0] = 0.5
    r -= 0.5
    out = _laplace_in_place(scale, r)
    return float(out) if out.ndim == 0 else out


__all__ = [
    "RandomSource",
    "laplace",
]
