"""Tests for the workload generator: streams, query structures, facade."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.sps.logical import OperatorKind
from repro.sps.types import DataType
from repro.workload import (
    ParameterSpace,
    QueryStructure,
    WorkloadGenerator,
    build_structure,
    random_stream_spec,
)
from repro.workload.datagen import FieldSpec, StreamSpec
from repro.workload.distributions import (
    GaussianDouble,
    StringVocabulary,
    UniformDouble,
    UniformInt,
    ZipfInt,
)
from repro.workload.generator import scale_plan_costs
from repro.workload.parameter_space import (
    EVENT_RATES,
    PARALLELISM_CATEGORIES,
    PARALLELISM_DEGREES,
)


class TestParameterSpace:
    def test_defaults_match_table3(self):
        space = ParameterSpace()
        assert 100_000.0 in space.event_rates
        assert 4_000_000.0 in space.event_rates
        assert space.tuple_widths == tuple(range(1, 16))
        assert set(space.sliding_ratios) == {0.3, 0.4, 0.5, 0.6, 0.7}
        assert len(EVENT_RATES) == 12

    def test_categories(self):
        assert PARALLELISM_CATEGORIES == {
            "XS": 1, "S": 2, "M": 4, "L": 8, "XL": 16, "XXL": 32,
        }
        assert max(PARALLELISM_DEGREES) == 128

    def test_sampling_stays_in_ranges(self, rng):
        space = ParameterSpace()
        for _ in range(50):
            assert space.sample_event_rate(rng) in space.event_rates
            assert space.sample_tuple_width(rng) in space.tuple_widths
            assert (
                space.sample_window_duration_s(rng) * 1e3
                in space.window_durations_ms
            )
            assert space.sample_parallelism(rng) in (
                space.parallelism_degrees
            )

    def test_sampling_draws_what_rng_choice_drew(self):
        # The sample_* helpers index with rng.integers instead of calling
        # rng.choice(tuple); same values, same generator state afterwards,
        # so no generated plan moves.
        space = ParameterSpace()
        ours = np.random.default_rng(31)
        theirs = np.random.default_rng(31)
        for _ in range(300):
            assert space.sample_event_rate(ours) == float(
                theirs.choice(space.event_rates)
            )
            assert space.sample_tuple_width(ours) == int(
                theirs.choice(space.tuple_widths)
            )
            assert space.sample_window_duration_s(ours) == (
                float(theirs.choice(space.window_durations_ms)) * 1e-3
            )
            assert space.sample_window_length(ours) == int(
                theirs.choice(space.window_lengths)
            )
            assert space.sample_sliding_ratio(ours) == float(
                theirs.choice(space.sliding_ratios)
            )
            assert space.sample_parallelism(ours) == int(
                theirs.choice(space.parallelism_degrees)
            )
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_invalid_band(self):
        with pytest.raises(ConfigurationError):
            ParameterSpace(selectivity_band=(0.9, 0.1))

    def test_invalid_rates(self):
        with pytest.raises(ConfigurationError):
            ParameterSpace(event_rates=(0.0,))


class TestStreamSpec:
    def _spec(self):
        return StreamSpec(
            name="s",
            fields=(
                FieldSpec("k", UniformInt(0, 9)),
                FieldSpec("v", UniformDouble(0.0, 1.0)),
            ),
            event_rate=1000.0,
        )

    def test_schema_matches_fields(self):
        schema = self._spec().schema()
        assert schema.width == 2
        assert schema.field("k").dtype is DataType.INT

    def test_generator_produces_valid_tuples(self, rng):
        spec = self._spec()
        generate = spec.generator()
        tup = generate(rng, 1.5)
        assert len(tup.values) == 2
        assert 0 <= tup.values[0] <= 9
        assert tup.event_time == 1.5
        assert tup.size_bytes == spec.schema().tuple_size_bytes()

    def test_generator_matches_per_field_sampling(self):
        # Width 15, every distribution kind, int fields interleaved with
        # 64-bit draws: the compiled generator must be the straight
        # field-by-field loop, value for value and word for word.
        kinds = (
            UniformInt(0, 99),
            ZipfInt(n=80, s=1.1),
            StringVocabulary(),
            GaussianDouble(1.0, 2.0),
            UniformDouble(0.0, 50.0),
        )
        spec = StreamSpec(
            name="wide",
            fields=tuple(
                FieldSpec(f"f{i}", kinds[i % len(kinds)]) for i in range(15)
            ),
            event_rate=1000.0,
        )
        generate = spec.generator()
        ours = np.random.default_rng(2024)
        theirs = np.random.default_rng(2024)
        size = spec.schema().tuple_size_bytes()
        for step in range(500):
            tup = generate(ours, step * 0.5)
            assert tup.values == tuple(
                fs.distribution.sample(theirs) for fs in spec.fields
            )
            assert tup.event_time == tup.origin_time == step * 0.5
            assert tup.size_bytes == size
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_invalid_specs(self):
        with pytest.raises(ConfigurationError):
            StreamSpec("s", (), 100.0)
        with pytest.raises(ConfigurationError):
            StreamSpec(
                "s", (FieldSpec("a", UniformInt()),), 0.0
            )
        with pytest.raises(ConfigurationError):
            StreamSpec(
                "s", (FieldSpec("a", UniformInt()),), 10.0,
                arrival="warp",
            )

    def test_numeric_field_indices(self):
        assert self._spec().numeric_field_indices() == [0, 1]


class TestRandomStreamSpec:
    def test_width_in_range(self, rng):
        space = ParameterSpace()
        for _ in range(20):
            spec = random_stream_spec("s", rng, space)
            assert 1 <= spec.tuple_width <= 16  # +1 numeric guarantee

    def test_int_key_guaranteed(self, rng):
        spec = random_stream_spec("s", rng, key_cardinality=50)
        assert spec.fields[0].dtype is DataType.INT
        assert spec.fields[0].distribution.hi == 49

    def test_numeric_field_guaranteed(self, rng):
        for _ in range(20):
            spec = random_stream_spec("s", rng)
            assert spec.numeric_field_indices()

    def test_event_rate_override(self, rng):
        spec = random_stream_spec("s", rng, event_rate=123.0)
        assert spec.event_rate == 123.0


class TestBuildStructure:
    @pytest.mark.parametrize("structure", list(QueryStructure))
    def test_all_structures_valid(self, structure, rng):
        query = build_structure(structure, rng, event_rate=1000.0)
        query.plan.validate()
        assert len(query.streams) == structure.num_sources
        joins = [
            op
            for op in query.plan.operators.values()
            if op.kind is OperatorKind.WINDOW_JOIN
        ]
        assert len(joins) == structure.num_joins

    def test_seen_unseen_split(self):
        seen = {s for s in QueryStructure if s.is_seen}
        assert seen == {
            QueryStructure.LINEAR,
            QueryStructure.TWO_WAY_JOIN,
            QueryStructure.THREE_WAY_JOIN,
        }

    def test_complexity_rank_total_order(self):
        ranks = {s.complexity_rank for s in QueryStructure}
        assert ranks == set(range(9))

    def test_filter_chain_lengths(self, rng):
        query = build_structure(
            QueryStructure.THREE_FILTER_CHAIN, rng, event_rate=100.0
        )
        filters = [
            op
            for op in query.plan.operators.values()
            if op.kind is OperatorKind.FILTER
        ]
        assert len(filters) == 3

    def test_filter_selectivities_in_band(self, rng):
        space = ParameterSpace()
        for _ in range(10):
            query = build_structure(
                QueryStructure.TWO_FILTER_CHAIN, rng, space, 1000.0
            )
            for op in query.plan.operators.values():
                if op.kind is OperatorKind.FILTER:
                    assert 0.0 < op.selectivity < 1.0

    def test_chained_filters_never_contradict(self):
        """Paper requirement: chained filters must keep passing data —

        two predicates on the same field must not form an empty
        conjunction (e.g. f1 < 0.4 AND f1 > 0.6)."""
        from repro.workload.querygen import _conjunction_selectivity

        for seed in range(25):
            rng = np.random.default_rng(seed)
            query = build_structure(
                QueryStructure.THREE_FILTER_CHAIN, rng, None, 1000.0
            )
            by_field: dict[int, list] = {}
            for op in query.plan.operators.values():
                if op.kind is not OperatorKind.FILTER:
                    continue
                logic = op.logic_factory()
                by_field.setdefault(
                    logic.predicate.field_index, []
                ).append(logic.predicate)
            stream = query.streams[0]
            check_rng = np.random.default_rng(seed + 1000)
            for field_index, predicates in by_field.items():
                if len(predicates) < 2:
                    continue
                survived = _conjunction_selectivity(
                    stream.fields[field_index].distribution,
                    predicates,
                    check_rng,
                )
                assert survived > 0.02

    def test_join_selectivity_bounded(self, rng):
        for _ in range(10):
            query = build_structure(
                QueryStructure.THREE_WAY_JOIN, rng, event_rate=100_000.0
            )
            for op in query.plan.operators.values():
                if op.kind is OperatorKind.WINDOW_JOIN:
                    assert 0.0 < op.selectivity <= 32.0

    def test_deterministic_per_seed(self):
        a = build_structure(
            QueryStructure.LINEAR, np.random.default_rng(5), None, 100.0
        )
        b = build_structure(
            QueryStructure.LINEAR, np.random.default_rng(5), None, 100.0
        )
        assert a.plan.describe() == b.plan.describe()


class TestWorkloadGenerator:
    def test_generates_requested_count(self, small_cluster):
        generator = WorkloadGenerator(seed=4)
        queries = generator.generate(
            small_cluster, count=6, event_rate=1000.0
        )
        assert len(queries) == 6
        structures = [q.structure for q in queries]
        assert len(set(structures)) == 6  # cycles through structures

    def test_parallelism_assigned_and_valid(self, small_cluster):
        generator = WorkloadGenerator(seed=4)
        for query in generator.generate(
            small_cluster, count=4, event_rate=10_000.0
        ):
            degrees = query.plan.parallelism_degrees()
            assert all(d >= 1 for d in degrees.values())
            assert query.params["strategy"] == "rule-based"
            query.plan.validate()

    def test_cost_scale_dilation(self, small_cluster):
        generator = WorkloadGenerator(seed=4)
        plain = generator.generate(
            small_cluster, count=1,
            structures=[QueryStructure.LINEAR], event_rate=1000.0,
        )[0]
        generator2 = WorkloadGenerator(seed=4)
        dilated = generator2.generate(
            small_cluster, count=1,
            structures=[QueryStructure.LINEAR], event_rate=1000.0,
            cost_scale=10.0,
        )[0]
        plain_cost = plain.plan.operator("filter0").cost.base_cpu_s
        dilated_cost = dilated.plan.operator("filter0").cost.base_cpu_s
        assert dilated_cost == pytest.approx(10.0 * plain_cost)

    def test_scale_plan_costs_rejects_nonpositive(self, small_cluster):
        generator = WorkloadGenerator(seed=4)
        query = generator.generate(
            small_cluster, count=1, event_rate=100.0
        )[0]
        with pytest.raises(ConfigurationError):
            scale_plan_costs(query.plan, 0.0)

    def test_unique_queries_across_calls(self, small_cluster):
        generator = WorkloadGenerator(seed=4)
        first = generator.generate(
            small_cluster, count=1,
            structures=[QueryStructure.LINEAR], event_rate=1000.0,
        )[0]
        second = generator.generate(
            small_cluster, count=1,
            structures=[QueryStructure.LINEAR], event_rate=1000.0,
        )[0]
        # Fresh randomness per query: filter predicates should differ.
        p1 = first.plan.operator("filter0").metadata["predicate"]
        p2 = second.plan.operator("filter0").metadata["predicate"]
        assert p1 != p2

    def test_invalid_count(self, small_cluster):
        with pytest.raises(ConfigurationError):
            WorkloadGenerator().generate(small_cluster, count=0)
