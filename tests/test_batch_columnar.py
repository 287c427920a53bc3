"""Unit tests for the columnar micro-batch layer.

Covers :class:`~repro.sps.columnar.TupleBatch` construction and
reshaping, the numpy gate, batch-mode configuration validation, and the
advisory BAT7xx batch-friendliness lint rules.
"""

import numpy as np
import pytest

from repro.analysis import analyze_plan
from repro.analysis.rules import RULE_CATALOG
from repro.apps import build_app
from repro.common.errors import ConfigurationError
from repro.core.runner import RunnerConfig
from repro.sps import builders, columnar
from repro.sps.columnar import TupleBatch, require_numpy, segment_reduce
from repro.sps.engine import SimulationConfig, StallInjection
from repro.sps.logical import LogicalPlan
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import ordered_sum
from repro.workload.querygen import QueryStructure, build_structure

SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])


def make_tuples(n, width=2, ragged=False):
    tuples = []
    for i in range(n):
        values = tuple(float(i * width + j) for j in range(width))
        if ragged and i % 2:
            values = values + (None,)
        tuples.append(
            StreamTuple(
                values=values,
                key=i % 3,
                event_time=0.1 * i,
                size_bytes=24.0,
            )
        )
    return tuples


def make_batch(n=6, **kwargs):
    return TupleBatch.from_tuples(
        make_tuples(n, **kwargs),
        now=np.arange(n, dtype=np.float64),
        seq=np.arange(n, dtype=np.int64),
    )


class TestTupleBatch:
    def test_numeric_fields_become_numeric_columns(self):
        batch = make_batch(5)
        assert batch.columns is not None
        for col in batch.columns:
            assert col.dtype.kind in "bif"
        assert len(batch) == 5

    def test_mixed_field_becomes_object_column(self):
        tuples = [
            StreamTuple(values=(1, "a"), event_time=0.0, size_bytes=8.0),
            StreamTuple(values=(2, None), event_time=0.1, size_bytes=8.0),
        ]
        batch = TupleBatch.from_tuples(
            tuples, now=np.zeros(2), seq=np.arange(2)
        )
        assert batch.columns[1].dtype == object

    def test_ragged_rows_force_row_storage(self):
        batch = make_batch(4, ragged=True)
        assert batch.columns is None
        assert batch.rows is not None and len(batch.rows) == 4

    def test_to_tuples_round_trip(self):
        tuples = make_tuples(6)
        batch = TupleBatch.from_tuples(
            tuples, now=np.zeros(6), seq=np.arange(6)
        )
        back = batch.to_tuples()
        assert [t.values for t in back] == [t.values for t in tuples]
        assert [t.key for t in back] == [t.key for t in tuples]
        assert [t.event_time for t in back] == [
            t.event_time for t in tuples
        ]

    def test_compress_and_take_and_slice_agree(self):
        batch = make_batch(8)
        rows = [t.values for t in batch.to_tuples()]
        mask = batch.columns[0] >= 8.0
        compressed = batch.compress(mask)
        taken = batch.take(np.flatnonzero(mask))
        assert [t.values for t in compressed.to_tuples()] == [
            t.values for t in taken.to_tuples()
        ]
        assert [
            t.values for t in batch.slice(2, 5).to_tuples()
        ] == rows[2:5]

    def test_concat_preserves_rows_and_metadata(self):
        a, b = make_batch(3), make_batch(4)
        merged = TupleBatch.concat([a, b])
        assert len(merged) == 7
        assert [t.values for t in merged.to_tuples()] == [
            t.values for t in a.to_tuples()
        ] + [t.values for t in b.to_tuples()]
        np.testing.assert_array_equal(
            merged.event_time,
            np.concatenate([a.event_time, b.event_time]),
        )

    def test_with_columns_keeps_provenance(self):
        batch = make_batch(4)
        doubled = batch.with_columns(
            (batch.columns[0], batch.columns[1] * 2.0)
        )
        np.testing.assert_array_equal(doubled.event_time, batch.event_time)
        np.testing.assert_array_equal(doubled.seq, batch.seq)
        np.testing.assert_array_equal(
            doubled.columns[1], batch.columns[1] * 2.0
        )

    def test_repeat_rows_expands_provenance(self):
        batch = make_batch(3)
        counts = np.array([2, 0, 3])
        out_col = np.repeat(batch.columns[1], counts)
        out = batch.repeat_rows(counts, (out_col,))
        assert len(out) == 5
        np.testing.assert_array_equal(
            out.event_time, np.repeat(batch.event_time, counts)
        )
        np.testing.assert_array_equal(
            out.key, np.repeat(batch.key, counts)
        )
        assert out.seq is None  # the executor numbers emissions

    def test_sequential_sum_matches_scalar_fold(self):
        # The shared ordered fold is the scalar ``acc += v`` loop: naive,
        # left to right, neither pairwise nor compensated.
        values = [1e16, 1.0, -1e16, 0.1, 7.7, 1e-9]
        acc = 0.25
        expected = acc
        for v in values:
            expected += v
        assert ordered_sum(values, acc) == expected
        assert ordered_sum(iter(values), acc) == expected
        assert ordered_sum([], acc) == acc
        assert ordered_sum(values[:1], acc) == acc + values[0]
        assert ordered_sum([1e16, 1.0, -1e16]) == 0.0  # compensated: 1.0

    def test_segment_reduce_cuts_runs_at_breaks(self):
        values = np.array([3.0, 1.0, 2.0, 9.0, 5.0, 4.0])
        origins = np.array([0.3, 0.1, 0.2, 0.9, 0.5, 0.4])
        group = np.array([0, 0, 0, 1, 2, 2])
        heads, bounds, vmin, vmax, origin, rows = segment_reduce(
            group[1:] != group[:-1], values, origins
        )
        assert heads.tolist() == [0, 3, 4]
        assert bounds == [0, 3, 4, 6]
        assert vmin == [1.0, 9.0, 4.0]
        assert vmax == [3.0, 9.0, 5.0]
        assert origin == [0.1, 0.9, 0.4]
        assert rows == values.tolist()
        single = segment_reduce(group[:0], values[:1], origins[:1])
        assert single[1:] == ([0, 1], [3.0], [3.0], [0.3], [3.0])

    def test_from_lists_types_columns_like_from_tuples(self):
        tuples = [
            StreamTuple(
                (key, agg),
                event_time=t,
                origin_time=t / 2,
                key=key,
                size_bytes=40.0,
            )
            for key, agg, t in (("a", 1.5, 0.1), ("b", 2.5, 0.2))
        ]
        now = [0.1, 0.2]
        seq = np.arange(2)
        want = TupleBatch.from_tuples(tuples, now, seq)
        got = TupleBatch.from_lists(
            (["a", "b"], [1.5, 2.5]), 0, [0.05, 0.1], 40.0, now, seq
        )
        for name in ("event_time", "origin_time", "key", "size_bytes", "now"):
            mine, theirs = getattr(got, name), getattr(want, name)
            assert mine.dtype == theirs.dtype, name
            np.testing.assert_array_equal(mine, theirs)
        for mine, theirs in zip(got.columns, want.columns):
            assert mine.dtype == theirs.dtype
            np.testing.assert_array_equal(mine, theirs)
        unkeyed = TupleBatch.from_lists(
            ([None, None], [1.5, 2.5]), 0, now, 40.0, now, seq
        )
        assert unkeyed.key is None
        assert unkeyed.columns[0].dtype == object


class TestNumpyGate:
    def test_require_numpy_passes_when_present(self):
        require_numpy()

    def test_require_numpy_raises_helpful_error(self, monkeypatch):
        monkeypatch.setattr(columnar, "HAVE_NUMPY", False)
        with pytest.raises(ConfigurationError, match="numpy"):
            require_numpy()


class TestBatchConfigValidation:
    def test_batch_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(batch_size=0)
        with pytest.raises(ConfigurationError):
            RunnerConfig(batch_size=0)

    def test_valid_batch_size_accepted(self):
        assert SimulationConfig(batch_size=256).batch_size == 256
        assert RunnerConfig(batch_size=256).batch_size == 256

    def test_batch_mode_rejects_stall_injection(self):
        with pytest.raises(ConfigurationError, match="stall"):
            SimulationConfig(
                batch_size=64,
                stalls=(StallInjection(1.0, "op", 0.5),),
            )


def udo_heavy_plan():
    """source -> udo -> sink: 2 of 3 operators on the scalar fallback."""
    from repro.sps.operators.base import OperatorLogic

    class Custom(OperatorLogic):
        def process(self, tup, now, port=0):
            return [tup]

    plan = LogicalPlan("udo-heavy")
    plan.add_operator(
        builders.source(
            "src",
            lambda rng, now: StreamTuple(
                values=(1.0,), event_time=now, size_bytes=8.0
            ),
            Schema([Field("v", DataType.DOUBLE)]),
            event_rate=1000.0,
        )
    )
    plan.add_operator(builders.udo("custom", Custom))
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "custom")
    plan.connect("custom", "sink")
    return plan


class TestBatchLintRules:
    def test_bat_rules_are_catalogued(self):
        for code in ("BAT701", "BAT702", "BAT703"):
            assert code in RULE_CATALOG
            assert RULE_CATALOG[code].family == "batch"

    def test_bat_rules_are_opt_in(self):
        report = analyze_plan(udo_heavy_plan())
        assert not any(d.code.startswith("BAT") for d in report)

    def test_udo_heavy_plan_warns_on_fallback_density(self):
        report = analyze_plan(udo_heavy_plan(), batch=True)
        assert report.by_code("BAT701")
        assert any(
            d.op_id == "custom" for d in report.by_code("BAT702")
        )
        assert any(d.op_id == "src" for d in report.by_code("BAT703"))

    @pytest.mark.parametrize("structure", list(QueryStructure))
    def test_generated_plans_carry_a_columnar_source(self, structure):
        query = build_structure(structure, np.random.default_rng(17))
        report = analyze_plan(query.plan, batch=True)
        assert not report.by_code("BAT703")
        # Density counts real fallbacks only — joins and count windows,
        # never the sources (a two-way join used to read 3 of 5).
        fallbacks = len(report.by_code("BAT702"))
        assert fallbacks >= structure.num_joins
        assert bool(report.by_code("BAT701")) == (
            fallbacks > len(query.plan.operators) / 2
        )

    def test_bat703_hint_names_the_columnar_signature(self):
        (diag,) = analyze_plan(udo_heavy_plan(), batch=True).by_code("BAT703")
        assert "(rng, n) -> (columns, sizes)" in diag.hint

    def test_vectorized_wordcount_is_batch_clean(self):
        app = build_app("WC", event_rate=1000.0)
        report = analyze_plan(app.plan, batch=True)
        assert not any(d.code.startswith("BAT") for d in report)

    def test_builtin_apps_stay_clean_without_batch_rules(self):
        app = build_app("SG", event_rate=1000.0)
        assert analyze_plan(app.plan).is_clean
