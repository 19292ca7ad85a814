#!/usr/bin/env python3
"""Tour of the counter mechanisms.

Streams a bursty workload through the exact baseline, the binary-tree counter,
and the two-phase flag/tree counter, then shows what the accuracy wrappers do
to the releases. Prints a small table per mechanism: true prefix sum, release,
and whether the release sits inside the mechanism's declared envelope.
"""

import numpy as np

from contcount import (
    FTSum,
    MonotoneWrapper,
    PerfectCounter,
    RandomSource,
    TreeSum,
    UnderestimatorWrapper,
    ZeroFailureWrapper,
    envelope_check,
)

N, M, EPS = 256, 1, 1.0
SEED = 7


def bursty_stream(n):
    """Quiet start, burst in the middle, quiet tail; entries in [0, 1]."""
    gen = np.random.default_rng(0)
    rates = np.concatenate([
        np.full(n // 4, 0.05), np.full(n // 2, 0.9), np.full(n - n // 4 - n // 2, 0.2)])
    return (gen.random(n) < rates).astype(float).reshape(-1, 1)


def show(name, mech, stream, checkpoints=(16, 64, 128, 192, 256)):
    true = np.zeros(mech.dim)
    rows = []
    for t, a in enumerate(stream, start=1):
        y = mech.update(a)
        true += a
        if t in checkpoints:
            ok, _ = envelope_check(true, y, mech.envelope)
            rows.append((t, float(true[0]), float(y[0]), ok))
    env = mech.envelope
    print(f"\n{name}  (envelope alpha={env.alpha:.2f}, beta={env.beta:.1f}, "
          f"gamma={env.gamma:.2f})")
    print(f"  {'t':>4} {'true':>8} {'released':>10}  in envelope")
    for t, x, y, ok in rows:
        print(f"  {t:>4} {x:>8.2f} {y:>10.2f}  {ok}")


def main():
    stream = bursty_stream(N)
    print(f"workload: {int(stream.sum())} total arrivals over {N} steps")

    show("perfect counter", PerfectCounter(N, M), stream)
    show("tree counter (eps=1)", TreeSum(N, M, EPS, RandomSource(SEED, 1)), stream)
    show("flag/tree counter (eps=1, alpha=2)",
         FTSum(N, M, EPS, 2.0, 0.1, RandomSource(SEED, 2)), stream)

    print("\nzero-noise mode reproduces exact prefix sums bit for bit:")
    exact = TreeSum(N, M, EPS, RandomSource(SEED, 3, zero_noise=True))
    outs = np.array([exact.update(a) for a in stream])
    print("  max |release - cumsum| =", float(np.abs(outs - np.cumsum(stream, axis=0)).max()))

    print("\nwrappers on a clamped tree counter (target envelope (1.5, 3)):")
    from contcount import AccuracyEnvelope
    inner = TreeSum(N, M, EPS, RandomSource(SEED, 4))
    clamped = ZeroFailureWrapper(inner, AccuracyEnvelope(1.5, 3.0, 0.0))
    under = UnderestimatorWrapper(clamped)
    mono = MonotoneWrapper(under)
    true = 0.0
    print(f"  {'t':>4} {'true':>7} {'clamp->under->mono':>20}  (never above true, integral)")
    for t, a in enumerate(stream, start=1):
        y = float(mono.update(a)[0])
        true += float(a[0])
        if t % 32 == 0:
            print(f"  {t:>4} {true:>7.1f} {y:>20.1f}")
    print("  final declared envelope:", mono.envelope)


if __name__ == "__main__":
    main()
