"""Unit tests for schemas, tuples and predicates."""

import pytest

from repro.common.errors import ConfigurationError
from repro.sps.predicates import FilterFunction, Predicate
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema
from repro.sps.types import uniform_schema


class TestDataType:
    def test_wire_sizes(self):
        assert DataType.INT.wire_size == 8
        assert DataType.DOUBLE.wire_size == 8
        assert DataType.STRING.wire_size == 24

    def test_numeric_flags(self):
        assert DataType.INT.is_numeric
        assert DataType.DOUBLE.is_numeric
        assert not DataType.STRING.is_numeric


class TestSchema:
    def test_width_and_lookup(self):
        schema = Schema(
            [Field("a", DataType.INT), Field("b", DataType.STRING)]
        )
        assert schema.width == 2
        assert schema.index_of("b") == 1
        assert schema.field("a").dtype is DataType.INT

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            Schema([Field("a", DataType.INT), Field("a", DataType.INT)])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Schema([])

    def test_unknown_field(self):
        schema = Schema([Field("a", DataType.INT)])
        with pytest.raises(ConfigurationError, match="unknown field"):
            schema.index_of("zzz")

    def test_tuple_size_includes_header(self):
        schema = Schema([Field("a", DataType.INT)])
        assert schema.tuple_size_bytes() == 16 + 8

    def test_fields_of_type(self):
        schema = Schema(
            [
                Field("a", DataType.INT),
                Field("b", DataType.STRING),
                Field("c", DataType.INT),
            ]
        )
        assert [f.name for f in schema.fields_of_type(DataType.INT)] == [
            "a",
            "c",
        ]

    def test_equality_and_hash(self):
        one = Schema([Field("a", DataType.INT)])
        two = Schema([Field("a", DataType.INT)])
        assert one == two
        assert hash(one) == hash(two)

    def test_uniform_schema(self):
        schema = uniform_schema(3, DataType.DOUBLE)
        assert schema.width == 3
        assert all(f.dtype is DataType.DOUBLE for f in schema.fields)
        with pytest.raises(ConfigurationError):
            uniform_schema(0, DataType.INT)


class TestStreamTuple:
    def test_origin_defaults_to_event_time(self):
        tup = StreamTuple(values=(1,), event_time=5.0)
        assert tup.origin_time == 5.0

    def test_with_values_preserves_provenance(self):
        tup = StreamTuple(values=(1,), event_time=5.0, origin_time=2.0)
        derived = tup.with_values((9, 9))
        assert derived.values == (9, 9)
        assert derived.origin_time == 2.0
        assert derived.event_time == 5.0

    def test_with_key(self):
        tup = StreamTuple(values=(1,), event_time=0.0)
        keyed = tup.with_key("k")
        assert keyed.key == "k"
        assert tup.key is None  # original untouched


class TestPredicate:
    def _tup(self, *values):
        return StreamTuple(values=values, event_time=0.0)

    @pytest.mark.parametrize(
        "function,literal,value,expected",
        [
            (FilterFunction.LT, 5, 4, True),
            (FilterFunction.LT, 5, 5, False),
            (FilterFunction.GT, 5, 6, True),
            (FilterFunction.LE, 5, 5, True),
            (FilterFunction.GE, 5, 4, False),
            (FilterFunction.EQ, 5, 5, True),
            (FilterFunction.NE, 5, 5, False),
        ],
    )
    def test_numeric_functions(self, function, literal, value, expected):
        predicate = Predicate(0, function, literal)
        assert predicate.evaluate(self._tup(value)) is expected

    @pytest.mark.parametrize(
        "function,literal,value,expected",
        [
            (FilterFunction.STARTS_WITH, "ab", "abc", True),
            (FilterFunction.STARTS_WITH, "b", "abc", False),
            (FilterFunction.ENDS_WITH, "bc", "abc", True),
            (FilterFunction.CONTAINS, "b", "abc", True),
            (FilterFunction.CONTAINS, "z", "abc", False),
        ],
    )
    def test_string_functions(self, function, literal, value, expected):
        predicate = Predicate(0, function, literal)
        assert predicate.evaluate(self._tup(value)) is expected

    def test_string_function_requires_string_literal(self):
        with pytest.raises(ConfigurationError):
            Predicate(0, FilterFunction.STARTS_WITH, 42)

    def test_invalid_selectivity_hint(self):
        with pytest.raises(ConfigurationError):
            Predicate(0, FilterFunction.LT, 5, selectivity_hint=1.5)

    def test_negative_field_index(self):
        with pytest.raises(ConfigurationError):
            Predicate(-1, FilterFunction.LT, 5)

    def test_applies_to(self):
        assert FilterFunction.LT.applies_to(DataType.INT)
        assert not FilterFunction.LT.applies_to(DataType.STRING)
        assert FilterFunction.CONTAINS.applies_to(DataType.STRING)
        assert not FilterFunction.CONTAINS.applies_to(DataType.DOUBLE)
        assert FilterFunction.EQ.applies_to(DataType.STRING)

    def test_callable_and_describe(self):
        predicate = Predicate(1, FilterFunction.GT, 0.5)
        assert predicate(self._tup(0, 0.9))
        assert "f1 > 0.5" == predicate.describe()
