"""The batch window kernel against the scalar operator, exactly.

``WindowAggregateLogic.process_time_batch`` folds a micro-batch in one
segmented pass; the scalar ``process``/``on_time`` pair folds a tuple at
a time.  Both mutate the same slice state, so for any stream and any cut
into micro-batches they must emit the *same* ``(fire_time, key,
aggregate, origin_time)`` sequence, bit for bit — the engine-level
suites only compare tumbling sums with ``isclose``.  Also pinned here:
the ordered float fold every window sum goes through, and that the
block-drawn arrival gaps of ``ColumnarExecutor._replay_arrivals`` are
the per-call draws.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import homogeneous_cluster
from repro.common.rng import RngFactory
from repro.sps import batch as batch_module
from repro.sps import builders
from repro.sps.batch import ColumnarExecutor
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.logical import LogicalPlan
from repro.sps.operators.aggregate import WindowAggregateLogic
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import (
    AggregateFunction,
    SlidingCountWindows,
    SlidingTimeWindows,
    TumblingTimeWindows,
)
from tests.conftest import kv_generator

ASSIGNERS = {
    "tumbling": lambda: TumblingTimeWindows(0.1),
    # overlapping: float sum/avg/mean take the _keep_values exact path
    "sliding-3x": lambda: SlidingTimeWindows(0.3, 0.1),
    "sliding-2.5x": lambda: SlidingTimeWindows(0.25, 0.1),
    # slide == duration: ``k * slide + duration`` can round onto a
    # timestamp that no window contains (lo > hi)
    "sliding-1x": lambda: SlidingTimeWindows(0.1, 0.1),
}

KEY_KINDS = ("global", "int", "str-object", "str-fixed")


def key_column(kind, codes):
    """The key array the executor would hand the kernel, or None."""
    if kind == "global":
        return None
    if kind == "int":
        return np.asarray(codes, dtype=np.int64)
    words = [f"k{code}" for code in codes]
    if kind == "str-fixed":
        return np.asarray(words)
    column = np.empty(len(words), dtype=object)
    column[:] = words
    return column


def tick_times(interval, horizon):
    """The executor's schedule: repeated addition up to the drain."""
    out = []
    t = interval
    while t <= horizon:
        out.append(t)
        t += interval
    return out


def as_rows(tuples):
    return [(t.event_time, t.key, t.values[1], t.origin_time) for t in tuples]


def run_scalar(logic, keys, values, nows, origins, ticks):
    """process/on_time/flush in the kernel's documented order: a tick
    runs before a tuple only when strictly earlier (on an exact tie the
    tuple's own ``process`` call fires the ready windows), trailing
    ticks after the last tuple."""
    out = []
    cursor = 0
    for i, now in enumerate(nows):
        while cursor < len(ticks) and ticks[cursor] < now:
            out.extend(logic.on_time(ticks[cursor]))
            cursor += 1
        key = None if keys is None else keys[i]
        tup = StreamTuple(
            values=(key, values[i]),
            event_time=now,
            origin_time=origins[i],
            key=key,
        )
        out.extend(logic.process(tup, now))
    for t in ticks[cursor:]:
        out.extend(logic.on_time(t))
    out.extend(logic.flush(nows[-1]))
    return as_rows(out)


def run_batched(logic, keys, values, nows, origins, ticks, cuts):
    """The same stream through the kernel, cut at ``cuts``."""
    values = np.asarray(values, dtype=np.float64)
    nows = np.asarray(nows, dtype=np.float64)
    origins = np.asarray(origins, dtype=np.float64)
    out = []
    bounds = [0, *cuts, len(values)]
    for a, b in zip(bounds, bounds[1:]):
        fires = logic.process_time_batch(
            None if keys is None else keys[a:b],
            values[a:b],
            nows[a:b],
            origins[a:b],
            ticks,
        )
        assert len({len(column) for column in fires}) == 1
        out.extend(zip(fires[0], fires[2], fires[3], fires[4]))
    fires = logic.finalize_time_batch(ticks)
    assert all(fires[1])  # past the last tuple only ticks fire
    out.extend(zip(fires[0], fires[2], fires[3], fires[4]))
    out.extend(as_rows(logic.flush(float(nows[-1]))))
    return out


@st.composite
def streams(draw):
    n = draw(st.integers(1, 60))
    # Timestamps mix free floats with exact window-end values, which is
    # where ticks tie with tuples and where rounding leaves lo > hi.
    # They are distinct, as continuous arrivals are: tumbling windows
    # assign ``t = k * d + d`` (rounded down) to the window *ending* at
    # t, which the scalar path fires after the first tuple at t and the
    # batch path after the last — a measure-zero artefact older than
    # this kernel and not what is under test.
    time = st.one_of(
        st.floats(0.0, 1.5, allow_nan=False),
        st.integers(0, 14).map(lambda k: k * 0.1 + 0.1),
    )
    nows = sorted(draw(st.lists(time, min_size=n, max_size=n, unique=True)))
    value = st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.sampled_from([1e16, -1e16, 1.0, 0.1]),
    )
    values = draw(st.lists(value, min_size=n, max_size=n))
    origins = draw(
        st.lists(st.floats(0.0, 2.0, allow_nan=False), min_size=n, max_size=n)
    )
    codes = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    return nows, values, origins, codes, cuts


def logic_for(assigner, function, key_kind):
    return WindowAggregateLogic(
        ASSIGNERS[assigner](),
        function,
        value_field=1,
        key_field=None if key_kind == "global" else 0,
    )


@settings(max_examples=300, deadline=None)
@given(
    stream=streams(),
    assigner=st.sampled_from(sorted(ASSIGNERS)),
    function=st.sampled_from(list(AggregateFunction)),
    key_kind=st.sampled_from(KEY_KINDS),
)
@example(
    # now = 5 * 0.1 + 0.1 = 0.6 has no containing window at slide ==
    # duration == 0.1 (lo = 6 > hi = 5); key 3 is first seen on that
    # row, so it is ranked before it owns a slice.
    stream=(
        [0.05, 0.6, 0.65, 0.95],
        [1.0, 2.0, 4.0, 8.0],
        [0.0, 0.5, 0.1, 0.9],
        [1, 3, 1, 3],
        [2],
    ),
    assigner="sliding-1x",
    function=AggregateFunction.SUM,
    key_kind="int",
)
def test_batch_kernel_emits_exactly_the_scalar_sequence(
    stream, assigner, function, key_kind
):
    nows, values, origins, codes, cuts = stream
    keys = key_column(key_kind, codes)
    scalar = logic_for(assigner, function, key_kind)
    batched = logic_for(assigner, function, key_kind)
    ticks = tick_times(scalar.timer_interval, nows[-1])
    scalar_keys = None if keys is None else keys.tolist()
    want = run_scalar(scalar, scalar_keys, values, nows, origins, ticks)
    got = run_batched(batched, keys, values, nows, origins, ticks, cuts)
    assert got == want
    assert batched.windows_fired == scalar.windows_fired
    assert batched.live_slices == 0 and batched.pending_windows == 0


def test_rounding_gap_row_is_in_the_property_domain():
    """The pinned example really holds a row with ``lo > hi``."""
    lo, hi = ASSIGNERS["sliding-1x"]().assign_index_range(0.6)
    assert lo > hi


# ------------------------------------------------------- the ordered fold


CANCELLING = [1e16, 1.0, -1e16]  # naive left fold 0.0, compensated 1.0


@pytest.mark.parametrize(
    "function, expected",
    [(AggregateFunction.SUM, 0.0), (AggregateFunction.AVG, 0.0)],
)
def test_sliding_count_window_sum_is_the_naive_left_fold(function, expected):
    """Builtin ``sum()`` is Neumaier-compensated from Python 3.12 on and
    would answer 1.0 here — different bits per interpreter."""
    logic = WindowAggregateLogic(
        SlidingCountWindows(3, 3), function, value_field=0
    )
    out = []
    for i, value in enumerate(CANCELLING):
        tup = StreamTuple(values=(value,), event_time=float(i))
        out.extend(logic.process(tup, float(i)))
    assert [t.values[1] for t in out] == [expected]


def test_aggregate_function_apply_is_the_naive_left_fold():
    assert AggregateFunction.SUM.apply(CANCELLING) == 0.0
    assert AggregateFunction.MEAN.apply(CANCELLING) == 0.0
    assert math.fsum(CANCELLING) == 1.0  # what a compensated sum gives
    big = [2**60, 1, -(2**60)]  # integer inputs still sum exactly
    assert AggregateFunction.SUM.apply(big) == 1.0


# ------------------------------------------------------- arrival replay

SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])

_POISSON, _CONSTANT, _BURSTY, _PROFILE = range(4)


def four_source_engine(max_tuples, max_sim_time):
    """Poisson, constant, bursty and profile sources with unequal rates
    and (through parallelism) unequal per-instance budgets."""
    plan = LogicalPlan("arrivals")
    shapes = (
        ("poisson", 900.0, 2),
        ("constant", 400.0, 1),
        ("bursty", 1500.0, 3),
        ("profile", 700.0, 1),
    )
    plan.add_operator(builders.sink("sink"))
    for arrival, rate, parallelism in shapes:
        op = builders.source(
            arrival,
            kv_generator(),
            SCHEMA,
            event_rate=rate,
            parallelism=parallelism,
            arrival=arrival,
        )
        if arrival == "profile":
            op.metadata["rate_profile"] = lambda t: 700.0 + 600.0 * math.sin(
                9.0 * t
            )
        plan.add_operator(op)
        plan.connect(arrival, "sink")
    return StreamEngine(
        plan,
        homogeneous_cluster(num_nodes=2),
        config=SimulationConfig(
            max_tuples_per_source=max_tuples,
            max_sim_time=max_sim_time,
            batch_size=64,
        ),
        rng_factory=RngFactory(23),
    )


def per_call_arrivals(engine, held=None):
    """Reference: one ``Generator.exponential(mean)`` call per gap, each
    source on its own ``engine/<op>/<i>/arrivals`` stream. ``held``
    maps an arrival instant to the instant its tuple is emitted, from
    which the next gap is drawn (backpressure holds a source)."""
    max_time = engine.config.max_sim_time
    per = {}
    for rt in engine._runtimes:
        if not rt.is_source:
            continue
        rng = engine._rngs.fresh(
            "engine", rt.op_id, str(rt.index), "arrivals"
        )
        times = per[rt.gid] = []
        at = 0.0
        while len(times) < rt.arrival_budget:
            kind = rt.arrival_kind
            if kind == _POISSON:
                gap = rng.exponential(rt.mean_gap)
            elif kind == _CONSTANT:
                gap = rt.mean_gap
            elif kind == _BURSTY:
                fast = (at * 10.0) % 1.0 < 0.25
                gap = rng.exponential(
                    rt.burst_fast_gap if fast else rt.burst_slow_gap
                )
            else:
                instant = max(
                    float(rt.rate_profile(at)) / rt.profile_divisor, 1e-9
                )
                gap = rng.exponential(1.0 / instant)
            at += gap
            if held is not None:
                at = held(at)
            if at > max_time:
                break
            times.append(at)
    return per


@pytest.mark.parametrize(
    "max_tuples, max_sim_time, block",
    [
        (600, 60.0, None),  # every source reaches its budget
        (600, 0.4, None),  # cut by max_sim_time, budgets never reached
        (600, 60.0, 7),  # many block refills
    ],
)
def test_block_drawn_gaps_are_the_per_call_gaps(
    monkeypatch, max_tuples, max_sim_time, block
):
    if block is not None:
        monkeypatch.setattr(batch_module, "_GAP_BLOCK", block)
    engine = four_source_engine(max_tuples, max_sim_time)
    executor = ColumnarExecutor(engine)
    got = {
        gid: times.tolist()
        for gid, times in executor._replay_arrivals().items()
    }
    want = per_call_arrivals(engine)
    assert got == want
    kinds = {rt.arrival_kind for rt in engine._runtimes if rt.is_source}
    assert kinds == {_POISSON, _CONSTANT, _BURSTY, _PROFILE}
    budgets = {rt.arrival_budget for rt in engine._runtimes if rt.is_source}
    assert len(budgets) > 1
    total = sum(len(times) for times in want.values())
    assert executor._n_arrivals == total > 0
    assert engine._last_source_time == max(
        times[-1] for times in want.values() if times
    )
    cut = any(
        len(want[rt.gid]) < rt.arrival_budget
        for rt in engine._runtimes
        if rt.is_source
    )
    assert cut == (max_sim_time < 1.0)
