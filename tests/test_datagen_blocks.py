"""Synthetic streams drawn in columns (DESIGN.md §1).

Five pins, one per claim the columnar stream definition rests on:

1. ``sample_block(rng, n)`` is ``n`` successive ``sample(rng)`` calls —
   values, Python types and generator state;
2. a ``StreamSpec`` source lays its values out column-major inside
   ``SOURCE_CHUNK``-row chunks, each field's values being the ones its
   scalar sampler draws from the same stream position;
3. the row sequence does not depend on how it is read (``generate``,
   ``generate_columns`` in any request size, or a mix);
4. hence the scalar loop, the batch executor at any batch size and
   forked shards deliver the same tuples;
5. a failed source without checkpointing still pops one row per arrival.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import homogeneous_cluster
from repro.common.rng import RngFactory
from repro.sps import builders
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.logical import LogicalPlan
from repro.sps.operators.base import OperatorContext
from repro.sps.operators.sink import SinkLogic
from repro.sps.operators.source import SOURCE_CHUNK, SourceLogic
from repro.sps.types import DataType
from repro.workload.datagen import FieldSpec, StreamSpec
from repro.workload.distributions import (
    GaussianDouble,
    StringVocabulary,
    UniformDouble,
    UniformInt,
    ValueDistribution,
    ZipfInt,
)
from repro.workload.parameter_space import ParameterSpace
from repro.workload.querygen import QueryStructure, build_structure
from repro.workload.selectivity import draw_predicate


class EvenInts(ValueDistribution):
    """A third-party distribution that only defines ``sample``."""

    dtype = DataType.INT

    def sample(self, rng):
        return 2 * int(rng.integers(50))


KINDS = (
    UniformInt(0, 99),
    ZipfInt(n=80, s=1.1),
    StringVocabulary(),
    GaussianDouble(1.0, 2.0),
    UniformDouble(0.0, 50.0),
)

DISTRIBUTIONS = {
    "uniform-int": KINDS[0],
    "uniform-int-one-value": UniformInt(3, 3),
    "uniform-int-16-bit": UniformInt(0, 2**16 - 1),
    "uniform-int-32-bit": UniformInt(0, 2**32 - 1),
    "uniform-int-33-bit": UniformInt(-5, 2**32),
    "uniform-int-62-bit": UniformInt(0, 2**62),
    "zipf": KINDS[1],
    "vocabulary": KINDS[2],
    "weighted-vocabulary": StringVocabulary(("a", "bb", "c"), (5.0, 1.0, 2.0)),
    "gaussian": KINDS[3],
    "uniform-double": KINDS[4],
    "third-party": EvenInts(),
}


def wide_spec(width):
    return StreamSpec(
        name=f"w{width}",
        fields=tuple(
            FieldSpec(f"f{i}", KINDS[i % len(KINDS)]) for i in range(width)
        ),
        event_rate=1000.0,
    )


def source_logic(spec, seed):
    """A columnar-only source subtask on its own generator."""
    logic = SourceLogic(None, vector_generator=spec.block_generator())
    logic.setup(OperatorContext("src", 0, 1, np.random.default_rng(seed)))
    return logic


def read_rows(logic, count):
    return [logic.generate(float(i)).values for i in range(count)]


# ------------------------------------------------- 1. sample_block ≡ sample


class TestSampleBlock:
    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(1, 200),
        offset=st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_is_n_successive_samples(self, name, seed, n, offset):
        distribution = DISTRIBUTIONS[name]
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        # An odd number of 32-bit draws first leaves numpy's buffered
        # half-word pending, the state a mid-stream block starts from.
        for rng in (ours, theirs):
            for _ in range(offset):
                rng.integers(10)
        block = distribution.sample_block(ours, n).tolist()
        singles = [distribution.sample(theirs) for _ in range(n)]
        assert block == singles
        assert [type(v) for v in block] == [type(v) for v in singles]
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_vocabulary_block_hands_out_the_vocabulary_s_own_strings(self):
        words = StringVocabulary()
        block = words.sample_block(np.random.default_rng(1), 20).tolist()
        assert all(any(v is w for w in words.words) for v in block)


# --------------------------------------------------------- 2. chunk layout


class TestChunkLayout:
    @pytest.mark.parametrize("width", range(1, 16))
    def test_chunks_are_column_major_draws_of_the_scalar_samplers(self, width):
        spec = wide_spec(width)
        chunks = 3
        rows = read_rows(source_logic(spec, 2024), chunks * SOURCE_CHUNK)
        reference = np.random.default_rng(2024)
        expected = []
        for _ in range(chunks):
            columns = []
            for fs in spec.fields:
                sample = fs.distribution.sample
                columns.append(
                    [sample(reference) for _ in range(SOURCE_CHUNK)]
                )
            expected.extend(zip(*columns))
        assert rows == expected
        for row, want in zip(rows, expected):
            assert [type(v) for v in row] == [type(v) for v in want]

    def test_rows_are_stamped_like_the_one_row_form(self):
        spec = wide_spec(5)
        logic = source_logic(spec, 7)
        size = spec.schema().tuple_size_bytes()
        for step in range(SOURCE_CHUNK + 3):
            tup = logic.generate(step * 0.5)
            assert tup.event_time == tup.origin_time == step * 0.5
            assert tup.size_bytes == size
            assert tup.key is None
        assert logic.emitted == SOURCE_CHUNK + 3

    def test_subtasks_of_one_source_do_not_share_a_buffer(self):
        spec = wide_spec(4)
        plan_op = builders.source(
            "src",
            None,
            spec.schema(),
            spec.event_rate,
            vector_generator=spec.block_generator(),
        )
        first, second = plan_op.logic_factory(), plan_op.logic_factory()
        first.setup(OperatorContext("src", 0, 2, np.random.default_rng(5)))
        second.setup(OperatorContext("src", 1, 2, np.random.default_rng(5)))
        interleaved = [
            (first.generate(0.0).values, second.generate(0.0).values)
            for _ in range(SOURCE_CHUNK + 5)
        ]
        assert all(a == b for a, b in interleaved)
        assert [a for a, _ in interleaved] == read_rows(
            source_logic(spec, 5), SOURCE_CHUNK + 5
        )


# ------------------------------------------------------ 3. chunk invariance


def read_columns(logic, count):
    columns, sizes = logic.generate_columns(np.zeros(count))
    assert len(sizes) == count
    return list(zip(*[np.asarray(column).tolist() for column in columns]))


class TestChunkInvariance:
    TOTAL = 2000

    @pytest.mark.parametrize("request_size", [1, 7, SOURCE_CHUNK, 256, 1000])
    def test_any_request_size_reads_the_same_rows(self, request_size):
        spec = wide_spec(7)
        expected = read_rows(source_logic(spec, 11), self.TOTAL)
        logic = source_logic(spec, 11)
        rows = []
        while len(rows) < self.TOTAL:
            rows.extend(
                read_columns(logic, min(request_size, self.TOTAL - len(rows)))
            )
        assert rows == expected
        assert logic.emitted == self.TOTAL

    @given(
        seed=st.integers(0, 2**16),
        reads=st.lists(
            st.sampled_from(
                [0, 1, 7, SOURCE_CHUNK, 2 * SOURCE_CHUNK + 1, 256]
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_mix_of_the_two_reads_the_same_rows(self, seed, reads):
        spec = wide_spec(6)
        logic = source_logic(spec, seed)
        rows = []
        for count in reads:  # 0 stands for one generate() call
            if count == 0:
                rows.append(logic.generate(0.0).values)
            else:
                rows.extend(read_columns(logic, count))
        assert rows == read_rows(source_logic(spec, seed), len(rows))

    def test_columns_are_typed_slices(self):
        columns, sizes = source_logic(wide_spec(5), 3).generate_columns(
            np.zeros(SOURCE_CHUNK + 9)
        )
        kinds = [np.asarray(column).dtype.kind for column in columns]
        assert kinds == ["i", "i", "O", "f", "f"]
        assert sizes.dtype == np.float64


# ------------------------------------------------------ 4. mode equivalence


SPEC = StreamSpec(
    name="modes",
    fields=(
        FieldSpec("k", UniformInt(0, 63)),
        FieldSpec("z", ZipfInt(n=40, s=1.1)),
        FieldSpec("w", StringVocabulary()),
        FieldSpec("g", GaussianDouble(0.0, 3.0)),
        FieldSpec("u", UniformDouble(0.0, 10.0)),
    ),
    event_rate=4000.0,
)


def stateless_plan(filter_field=None):
    """``SPEC`` wired straight to a sink, or through one drawn filter."""
    plan = LogicalPlan("modes")
    plan.add_operator(
        builders.source(
            "src",
            None,
            SPEC.schema(),
            SPEC.event_rate,
            parallelism=2,
            vector_generator=SPEC.block_generator(),
        )
    )
    upstream = "src"
    if filter_field is not None:
        predicate = draw_predicate(
            SPEC.fields[filter_field].distribution,
            filter_field,
            np.random.default_rng(filter_field),
        )
        plan.add_operator(builders.filter_op("flt", predicate, parallelism=2))
        plan.connect("src", "flt")
        upstream = "flt"
    plan.add_operator(builders.sink("sink", keep_values=True))
    plan.connect(upstream, "sink")
    return plan


def run_plan(plan, tuples=700, nodes=2, fork=False, **config):
    engine = StreamEngine(
        plan,
        homogeneous_cluster("m510", nodes),
        config=SimulationConfig(
            max_tuples_per_source=tuples,
            max_sim_time=30.0,
            warmup_fraction=0.0,
            keep_sink_values=True,
            **config,
        ),
        rng_factory=RngFactory(9),
    )
    engine.shard_force_inline = not fork
    metrics = engine.run()
    values = Counter(
        values
        for runtime in engine._runtimes
        if isinstance(runtime.logic, SinkLogic)
        for values in runtime.logic.results
    )
    return values, metrics


class TestModeEquivalence:
    @pytest.mark.parametrize("filter_field", [None, 1, 2, 4])
    def test_scalar_batch_and_shards_deliver_the_same_tuples(
        self, filter_field
    ):
        plan = stateless_plan(filter_field)
        scalar, metrics = run_plan(plan)
        assert metrics.source_events == 700
        assert 0 < sum(scalar.values()) <= 700
        if filter_field is None:
            assert sum(scalar.values()) == 700
        for mode in (
            {"batch_size": 64},
            {"batch_size": 256},
            {"shards": 2, "fork": True},
        ):
            values, other = run_plan(plan, **mode)
            assert values == scalar, mode
            assert other.source_events == metrics.source_events, mode

    @pytest.mark.parametrize(
        "structure",
        [QueryStructure.LINEAR, QueryStructure.TWO_FILTER_CHAIN],
    )
    def test_generated_queries_are_batch_size_invariant(self, structure):
        query = build_structure(
            structure,
            np.random.default_rng(17),
            ParameterSpace(
                window_durations_ms=(500,),
                sliding_ratios=(0.5,),
                window_lengths=(100,),
            ),
            event_rate=5000.0,
        )
        query.plan.set_uniform_parallelism(2)
        sink = query.plan.operator("sink")
        query.plan.operators["sink"] = builders.sink(
            "sink", parallelism=sink.parallelism, keep_values=True
        )
        small, metrics = run_plan(query.plan, tuples=4000, batch_size=64)
        large, other = run_plan(query.plan, tuples=4000, batch_size=256)
        assert sum(small.values()) > 0
        assert small == large
        assert metrics.source_events == other.source_events == 4000


# ------------------------------------------------------ 5. failed sources


class TestFailedSource:
    def test_failed_source_still_pops_one_row_per_arrival(self):
        def run(scenario):
            plan = LogicalPlan("outage")
            plan.add_operator(
                builders.source(
                    "src",
                    None,
                    SPEC.schema(),
                    1000.0,
                    vector_generator=SPEC.block_generator(),
                )
            )
            plan.add_operator(builders.sink("sink", keep_values=True))
            plan.connect("src", "sink")
            engine = StreamEngine(
                plan,
                homogeneous_cluster("m510", 1),
                config=SimulationConfig(
                    max_tuples_per_source=200,
                    max_sim_time=30.0,
                    warmup_fraction=0.0,
                    keep_sink_values=True,
                    scenario=scenario,
                ),
                rng_factory=RngFactory(4),
            )
            metrics = engine.run()
            (sink,) = [
                runtime.logic
                for runtime in engine._runtimes
                if isinstance(runtime.logic, SinkLogic)
            ]
            return list(sink.results), metrics

        healthy, metrics = run(None)
        lossy, failed = run("failure:at=0.05,duration=0.06,node=0")
        lost = failed.extras["elastic"]["state_loss"]["lost_source_tuples"]
        assert len(healthy) == 200 and lost > SOURCE_CHUNK
        assert failed.source_events == metrics.source_events == 200
        # The outage removes one contiguous run of rows and shifts
        # nothing: the rows after it are the ones a healthy run reads.
        gap = next(i for i, (a, b) in enumerate(zip(healthy, lossy)) if a != b)
        assert lossy == healthy[:gap] + healthy[gap + lost :]
