import math
import tracemalloc

import numpy as np
import pytest

from contcount.errors import ParameterError
from contcount.noise import RandomSource, laplace


def test_zero_scale_is_exactly_zero():
    rng = RandomSource(123)
    assert laplace(0.0, rng) == 0.0
    assert np.all(laplace(0.0, rng, size=10) == 0.0)


def test_inverse_cdf_at_forced_quartile():
    # hand-evaluated inverse CDF at u = r - 1/2 = 0.25
    assert laplace(1.0, FixedUniforms([0.75])) == pytest.approx(-math.log(0.5), abs=1e-12)
    assert laplace(1.0, FixedUniforms([0.25])) == pytest.approx(math.log(0.5), abs=1e-12)
    assert laplace(3.0, FixedUniforms([0.75])) == pytest.approx(-3.0 * math.log(0.5), abs=1e-12)
    assert laplace(1.0, FixedUniforms([0.5])) == 0.0


def test_negative_scale_rejected():
    with pytest.raises(ParameterError):
        laplace(-0.5, RandomSource(0))


def test_empirical_mean_and_median():
    # Monte-Carlo oracle: mean of 10^6 samples has standard error ~0.0014
    samples = laplace(1.0, RandomSource(7), size=10 ** 6)
    assert abs(samples.mean()) < 0.01
    assert abs(np.median(samples)) < 0.01


@pytest.mark.parametrize("t", [1.0, 2.0, 4.0])
def test_tail_probabilities(t):
    n = 10 ** 5
    samples = laplace(1.0, RandomSource(11), size=n)
    p = math.exp(-t)
    observed = float(np.mean(np.abs(samples) > t))
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(observed - p) <= 3 * sigma


def test_determinism_same_key():
    a = laplace(1.0, RandomSource(42, 5), size=100)
    b = laplace(1.0, RandomSource(42, 5), size=100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = laplace(1.0, RandomSource(42, 1), size=100)
    b = laplace(1.0, RandomSource(42, 2), size=100)
    assert not np.array_equal(a, b)
    # crude independence check: correlation of long streams is small
    x = laplace(1.0, RandomSource(9, 1), size=10 ** 5)
    y = laplace(1.0, RandomSource(9, 2), size=10 ** 5)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.02


def test_substream_deterministic_and_distinct():
    root = RandomSource(3, 0)
    c1 = root.substream(1)
    c2 = root.substream(2)
    again = RandomSource(3, 0).substream(1)
    assert c1.stream_id == again.stream_id
    assert c1.stream_id != c2.stream_id
    assert np.array_equal(laplace(1.0, c1, size=10),
                          laplace(1.0, RandomSource(3, 0).substream(1), size=10))


def test_lazily_built_generator_draws_like_an_eager_one():
    # a source builds its Philox generator on its first draw; deriving
    # substreams before or between draws must not move any value
    def eager(src):
        return np.random.Generator(np.random.Philox(key=[src.seed, src.stream_id]))

    root = RandomSource(77, 4)
    child = root.substream(2)
    root_ref, child_ref = eager(root), eager(child)
    assert root.uniform() == root_ref.random()
    grandchild = child.substream(0)
    assert np.array_equal(child.integers(0, 10, size=7), child_ref.integers(0, 10, size=7))
    grandchild_ref = eager(grandchild)
    assert root.integers(1, 6) == root_ref.integers(1, 6)
    assert np.array_equal(laplace(2.0, grandchild, size=5),
                          reference_laplace(2.0, FixedUniforms(grandchild_ref.random(5)), 5))
    assert np.array_equal(child.uniform(size=3), child_ref.random(3))
    assert root.substream(2).stream_id == child.stream_id
    assert laplace(1.0, root) == reference_laplace(1.0, FixedUniforms([root_ref.random()]), None)
    assert grandchild.integers(0, 2 ** 40) == grandchild_ref.integers(0, 2 ** 40)


def test_zero_noise_mode_forces_zero():
    rng = RandomSource(5, zero_noise=True)
    assert laplace(10.0, rng) == 0.0
    assert np.all(laplace(10.0, rng, size=(3, 4)) == 0.0)
    assert rng.substream(7).zero_noise


def test_seed_validation():
    with pytest.raises(ParameterError):
        RandomSource(-1)
    with pytest.raises(ParameterError):
        RandomSource(0, 2 ** 64)


def reference_laplace(scale, rng, size):
    """The bulk draw written as one expression over full-size temporaries."""
    r = rng.uniform(size=size)
    r = np.where(r == 0.0, 0.5, r)
    u = r - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("scale", [1e-300, 0.5, 1e6])
@pytest.mark.parametrize("size", [1, 1000, (3, 5), (64, 2), (3, 5000)])
def test_bulk_draw_matches_reference_expression(scale, size):
    for seed in range(4):
        assert_same_bits(laplace(scale, RandomSource(seed, 9), size=size),
                         reference_laplace(scale, RandomSource(seed, 9), size))


class FixedUniforms(RandomSource):
    """A source whose uniform draws are the given values, in order."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = np.asarray(draws, dtype=float)

    def uniform(self, size=None):
        if size is None:
            return float(self.draws[0])
        return self.draws.reshape(size).copy()


EDGE_UNIFORMS = [0.0, 0.5, 0.25, 0.75, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                 2.0 ** -53, 1.0 - 2.0 ** -53]


@pytest.mark.parametrize("scale", [1e-300, 0.5, 1e6])
def test_bulk_draw_matches_reference_on_exact_edge_uniforms(scale):
    got = laplace(scale, FixedUniforms(EDGE_UNIFORMS), size=len(EDGE_UNIFORMS))
    assert_same_bits(got, reference_laplace(scale, FixedUniforms(EDGE_UNIFORMS),
                                            len(EDGE_UNIFORMS)))
    # a 0.0 draw is remapped to the median, and the median maps to +0.0
    assert got[0] == got[1] == 0.0 and not np.signbit(got[:2]).any()
    for value, expected in zip(EDGE_UNIFORMS, got):
        one = laplace(scale, FixedUniforms([value]))
        assert isinstance(one, float)
        assert_same_bits(np.array(one), np.array(expected))


def test_bulk_draws_never_share_memory():
    rng = RandomSource(4)
    a = laplace(1.0, rng, size=256)
    b = laplace(1.0, rng, size=256)
    assert not np.shares_memory(a, b)
    assert not np.array_equal(a, b)


def test_bulk_draw_peaks_at_most_twice_its_result():
    # the draw is transformed in place: one result array, a mask of its zero
    # draws and one chunk of signs, against five result-sized arrays for the
    # expression over temporaries
    tracemalloc.start()
    try:
        out = laplace(1.0, RandomSource(0), size=1 << 17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes
