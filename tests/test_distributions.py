"""Unit tests for value distributions."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.sps.types import DataType
from repro.workload.distributions import (
    GaussianDouble,
    StringVocabulary,
    UniformDouble,
    UniformInt,
    ZipfInt,
    default_distribution,
)


class TestUniformInt:
    dist = UniformInt(0, 9)

    def test_samples_in_range(self, rng):
        for _ in range(100):
            assert 0 <= self.dist.sample(rng) <= 9

    def test_cdf(self):
        assert self.dist.cdf(-1) == 0.0
        assert self.dist.cdf(0) == pytest.approx(0.1)
        assert self.dist.cdf(4) == pytest.approx(0.5)
        assert self.dist.cdf(9) == 1.0

    def test_point_mass(self):
        assert self.dist.point_mass(3) == pytest.approx(0.1)
        assert self.dist.point_mass(3.5) == 0.0
        assert self.dist.point_mass(99) == 0.0

    def test_quantile_inverts_cdf(self):
        for q in (0.1, 0.25, 0.5, 0.9, 1.0):
            value = self.dist.quantile(q)
            assert self.dist.cdf(value) >= q - 1e-9

    def test_invalid_range(self):
        with pytest.raises(ConfigurationError):
            UniformInt(5, 4)


class TestUniformDouble:
    dist = UniformDouble(2.0, 4.0)

    def test_cdf_linear(self):
        assert self.dist.cdf(2.0) == 0.0
        assert self.dist.cdf(3.0) == pytest.approx(0.5)
        assert self.dist.cdf(4.0) == 1.0

    def test_quantile(self):
        assert self.dist.quantile(0.25) == pytest.approx(2.5)

    def test_point_mass_zero(self):
        assert self.dist.point_mass(3.0) == 0.0

    def test_samples_in_range(self, rng):
        samples = [self.dist.sample(rng) for _ in range(200)]
        assert all(2.0 <= s < 4.0 for s in samples)


class TestGaussianDouble:
    dist = GaussianDouble(10.0, 2.0)

    def test_cdf_at_mean(self):
        assert self.dist.cdf(10.0) == pytest.approx(0.5)

    def test_quantile_inverts_cdf(self):
        for q in (0.05, 0.3, 0.5, 0.8, 0.99):
            assert self.dist.cdf(self.dist.quantile(q)) == pytest.approx(
                q, abs=1e-6
            )

    def test_invalid_std(self):
        with pytest.raises(ConfigurationError):
            GaussianDouble(0.0, 0.0)


class TestZipfInt:
    dist = ZipfInt(n=50, s=1.2)

    def test_pmf_sums_to_one(self):
        total = sum(self.dist.point_mass(k) for k in range(1, 51))
        assert total == pytest.approx(1.0)

    def test_skew(self):
        assert self.dist.point_mass(1) > 5 * self.dist.point_mass(20)

    def test_cdf_monotone(self):
        values = [self.dist.cdf(k) for k in range(1, 51)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)

    def test_quantile(self):
        assert self.dist.quantile(0.0) == 1
        assert self.dist.quantile(1.0) == 50

    def test_samples_in_support(self, rng):
        for _ in range(100):
            assert 1 <= self.dist.sample(rng) <= 50


class TestStringVocabulary:
    dist = StringVocabulary(("apple", "apricot", "banana", "cherry"))

    def test_uniform_point_mass(self):
        assert self.dist.point_mass("apple") == pytest.approx(0.25)
        assert self.dist.point_mass("durian") == 0.0

    def test_prefix_mass(self):
        assert self.dist.prefix_mass("ap") == pytest.approx(0.5)
        assert self.dist.prefix_mass("z") == 0.0

    def test_suffix_and_substring_mass(self):
        assert self.dist.suffix_mass("ana") == pytest.approx(0.25)
        assert self.dist.substring_mass("an") == pytest.approx(0.25)

    def test_lexicographic_cdf(self):
        assert self.dist.cdf("a") == 0.0
        assert self.dist.cdf("apple") == pytest.approx(0.25)
        assert self.dist.cdf("zzz") == 1.0

    def test_weighted(self):
        weighted = StringVocabulary(
            ("a", "b"), weights=(3.0, 1.0)
        )
        assert weighted.point_mass("a") == pytest.approx(0.75)

    def test_invalid_vocab(self):
        with pytest.raises(ConfigurationError):
            StringVocabulary(())
        with pytest.raises(ConfigurationError):
            StringVocabulary(("a", "a"))
        with pytest.raises(ConfigurationError):
            StringVocabulary(("a", "b"), weights=(1.0,))

    def test_samples_from_vocab(self, rng):
        for _ in range(50):
            assert self.dist.sample(rng) in self.dist.words


class TestDefaultDistribution:
    def test_types_match(self, rng):
        for dtype in DataType:
            dist = default_distribution(dtype, rng)
            assert dist.dtype is dtype

    def test_randomised_parameters(self, rng):
        descriptions = {
            default_distribution(DataType.INT, rng).describe()
            for _ in range(20)
        }
        assert len(descriptions) > 1


def _same_stream(dist, reference, seed=99, draws=10_000):
    """``dist.sample`` vs the numpy call it replaces, draw for draw.

    The reference is the installed numpy itself, so the pin holds (or
    fails loudly) on whatever numpy the environment has. Comparing the
    next ``random()`` of both generators checks that each draw consumed
    the same number of words, not only that the values agree.
    """
    ours = np.random.default_rng(seed)
    theirs = np.random.default_rng(seed)
    for _ in range(draws):
        got, want = dist.sample(ours), reference(theirs)
        assert got == want
        assert type(got) is type(want)
    assert ours.random() == theirs.random()
    assert ours.bit_generator.state == theirs.bit_generator.state


class TestSamplersMatchNumpy:
    """Each sampler consumes exactly the bit stream of its numpy twin."""

    def test_zipf_int(self):
        dist = ZipfInt(n=137, s=1.1)
        pmf = dist._pmf
        _same_stream(
            dist, lambda rng: int(rng.choice(dist.n, p=pmf)) + 1
        )

    def test_default_vocabulary(self):
        dist = StringVocabulary()
        pmf = dist._pmf
        _same_stream(
            dist,
            lambda rng: dist.words[int(rng.choice(len(dist.words), p=pmf))],
        )

    def test_uniform_double(self):
        dist = UniformDouble(-3.25, 977.5)
        _same_stream(
            dist, lambda rng: float(rng.uniform(dist.lo, dist.hi))
        )

    def test_gaussian_double(self):
        dist = GaussianDouble(mean=-4.5, std=2.75)
        _same_stream(
            dist, lambda rng: float(rng.normal(dist.mean, dist.std))
        )

    def test_uniform_int_keeps_the_half_word_buffer_in_step(self):
        # UniformInt stays on rng.integers (32-bit buffered draws); the
        # 64-bit samplers interleaved with it must leave that buffer as
        # the numpy calls they replace would.
        key, val = UniformInt(0, 99), UniformDouble(0.0, 10.0)
        zipf = ZipfInt(n=50, s=1.1)
        ours = np.random.default_rng(7)
        theirs = np.random.default_rng(7)
        for _ in range(2_000):
            got = (key.sample(ours), val.sample(ours), zipf.sample(ours))
            want = (
                int(theirs.integers(0, 100)),
                float(theirs.uniform(0.0, 10.0)),
                int(theirs.choice(50, p=zipf._pmf)) + 1,
            )
            assert got == want
        assert ours.bit_generator.state == theirs.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-6, max_value=1e6),
            ),
            min_size=1,
            max_size=40,
        ).filter(lambda ws: sum(ws) > 0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(weights=[1.0], seed=0)
    @example(weights=[0.0, 2.0, 0.0, 0.0], seed=1)
    def test_any_weight_vector(self, weights, seed):
        words = tuple(f"w{i}" for i in range(len(weights)))
        dist = StringVocabulary(words, tuple(weights))
        pmf = dist._pmf
        _same_stream(
            dist,
            lambda rng: words[int(rng.choice(len(words), p=pmf))],
            seed=seed,
            draws=200,
        )
