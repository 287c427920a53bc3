"""Unit tests for repro.common: rng, units, errors."""

import numpy as np
import pytest

from repro.common.errors import (
    ConfigurationError,
    PlanError,
    ReproError,
    SimulationError,
    StorageError,
    TrainingError,
)
from repro.common.rng import RngFactory, derive_seed
from repro.common.units import (
    GBPS,
    bytes_per_second,
    format_duration,
    format_rate,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_differs_by_name(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_differs_by_root(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_nonnegative_63bit(self):
        for seed in (0, 1, 2**40, 123456789):
            value = derive_seed(seed, "x")
            assert 0 <= value < 2**63

    def test_path_is_not_concatenation(self):
        # ("ab",) and ("a", "b") must produce different seeds.
        assert derive_seed(0, "ab") != derive_seed(0, "a", "b")

    def test_pinned_values(self):
        # Every named stream of every run derives from these bits.
        assert derive_seed(17, "engine", "src", "0") == 7412616525182909461
        assert derive_seed(0) == 3456079177858693020
        assert derive_seed(2**62 + 1, "a/b", "é") == 1424338409371347540


class TestRngFactory:
    def test_get_caches(self):
        rngs = RngFactory(5)
        assert rngs.get("x") is rngs.get("x")

    def test_streams_independent(self):
        rngs = RngFactory(5)
        a = rngs.get("a").random(100)
        b = rngs.get("b").random(100)
        assert not np.allclose(a, b)

    def test_fresh_restarts(self):
        rngs = RngFactory(5)
        first = rngs.fresh("s").random(10)
        second = rngs.fresh("s").random(10)
        assert np.allclose(first, second)

    def test_fresh_streams_of_one_path_are_independent(self):
        rngs = RngFactory(5)
        first, second = rngs.fresh("s"), rngs.fresh("s")
        assert first is not second
        first.random(7)
        assert second.random(3).tolist() == (
            RngFactory(5).fresh("s").random(3).tolist()
        )

    def test_same_seed_same_streams(self):
        a = RngFactory(9).get("x").random(5)
        b = RngFactory(9).get("x").random(5)
        assert np.allclose(a, b)

    def test_get_keys_by_path_not_joined_name(self):
        rngs = RngFactory(4)
        joined, split = rngs.get("a/b"), rngs.get("a", "b")
        assert joined is not split
        assert joined.random() == RngFactory(4).fresh("a/b").random()
        assert split.random() == RngFactory(4).fresh("a", "b").random()

    @pytest.mark.parametrize("seed", [0, 1, 2**62, 2**62 + 1, 2**62 + 7])
    @pytest.mark.parametrize(
        "names",
        [(), ("x",), ("engine", "src", "0"), ("engine", "op", "3", "noise")],
    )
    def test_fresh_is_default_rng_of_the_derived_seed(self, seed, names):
        fresh = RngFactory(seed).fresh(*names)
        want = np.random.default_rng(derive_seed(seed, *names))
        assert fresh.bit_generator.state == want.bit_generator.state
        assert fresh.integers(2**63, size=4).tolist() == (
            want.integers(2**63, size=4).tolist()
        )


class TestUnits:
    def test_gbps_constant(self):
        assert GBPS == 1e9 / 8

    def test_bytes_per_second(self):
        assert bytes_per_second(10.0) == pytest.approx(1.25e9)

    def test_bytes_per_second_rejects_negative(self):
        with pytest.raises(ValueError):
            bytes_per_second(-1.0)

    def test_format_duration_units(self):
        assert format_duration(5e-6).endswith("us")
        assert format_duration(5e-3).endswith("ms")
        assert format_duration(5.0).endswith("s")
        assert format_duration(600.0).endswith("min")

    def test_format_duration_negative(self):
        assert format_duration(-0.005).startswith("-")

    def test_format_rate(self):
        assert format_rate(10) == "10 ev/s"
        assert format_rate(5000) == "5k ev/s"
        assert format_rate(2_000_000) == "2mn ev/s"

    def test_format_rate_rejects_negative(self):
        with pytest.raises(ValueError):
            format_rate(-5)


class TestErrors:
    def test_hierarchy(self):
        for cls in (
            ConfigurationError,
            PlanError,
            SimulationError,
            StorageError,
            TrainingError,
        ):
            assert issubclass(cls, ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise PlanError("boom")
