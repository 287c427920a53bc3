"""Every source drawn in columns (DESIGN.md §1, "chunk layout of an
application stream").

The 14 applications, the three ``perf`` plans and the exp4/exp5
workloads define their sources as stateless block samplers read through
``SourceLogic``'s chunk buffer. The per-row samplers they replaced live
on below as the reference. Six pins:

1. per field, a block-drawn stream has the reference's distribution —
   exact support, dtype, derived-field identities, two-sample KS for
   continuous fields, chi-square for categorical ones and for the
   length / word statistics of the text sources;
2. ``generate()`` hands the operators Python ``int``/``float``/``str``
   with ``event_time == origin_time == now``;
3. the rows a source subtask delivers do not depend on who reads them:
   the scalar loop, ``batch_size`` 64 and 256, ``shards=1`` and forked
   ``shards=2``;
4. no shipped plan constructs a row generator;
5. a source given both forms is rejected;
6. checkpoint -> node failure -> replay redelivers the logged tuples
   and draws no chunk the failure-free run does not draw.
"""

from collections import Counter

import numpy as np
import pytest
from scipy import stats

import repro.apps as apps
from repro.apps import log_processing, sentiment, wordcount
from repro.cluster import NetworkSpec, homogeneous_cluster
from repro.common.errors import ConfigurationError
from repro.common.rng import RngFactory
from repro.core import perf
from repro.core.experiments import exp4, exp5
from repro.core.runner import BenchmarkRunner, RunnerConfig
from repro.sps import builders
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.operators.base import OperatorContext
from repro.sps.operators.sink import SinkLogic
from repro.sps.operators.source import SOURCE_CHUNK, SourceLogic
from repro.sps.types import DataType
from repro.workload.datagen import kv_block

# ------------------------------------- the retired per-row samplers, kept
# as the reference: verbatim from the commit before the block samplers.


def ref_sentence(rng):
    length = int(rng.integers(4, 10))
    idx = rng.integers(len(wordcount._VOCABULARY), size=length)
    return (" ".join(wordcount._VOCAB_ARRAY[idx].tolist()),)


def ref_impression(rng):
    ad = int(rng.integers(5_000))
    return (ad, ad % 100, float(rng.uniform(0.01, 2.0)))


def ref_ad_click(rng):
    if rng.random() < 0.7:
        ad = int(rng.integers(5_000 // 10))
    else:
        ad = int(rng.integers(5_000))
    return (ad, float(rng.uniform(0.1, 5.0)))


def ref_base_price(symbol):
    return 20.0 + (symbol % 50) * 3.0


def around_base(symbol, price, low, high):
    ratio = price / ref_base_price(symbol)
    return (low - 1e-9 <= ratio) & (ratio <= high + 1e-9)


def ref_trade(rng):
    symbol = int(rng.integers(200))
    price = ref_base_price(symbol) * float(rng.uniform(0.97, 1.03))
    return (symbol, price, float(rng.integers(100, 5_000)))


def ref_quote(rng):
    symbol = int(rng.integers(200))
    ask = ref_base_price(symbol) * float(rng.uniform(0.94, 1.04))
    return (symbol, ask, float(rng.integers(100, 2_000)))


def ref_ca_click(rng):
    visitor = int(rng.integers(50_000))
    return (visitor, visitor % 40, int(rng.integers(2_000)))


def ref_transaction(rng):
    account = int(rng.integers(500))
    if rng.random() < 0.03:
        state = int(rng.integers(12))
    else:
        state = int((account + rng.integers(0, 2)) % 12)
    return (account, state, float(rng.uniform(1.0, 2_000.0)))


def ref_report(rng):
    xway = int(rng.integers(4))
    segment = int(rng.integers(100))
    congested = 40 <= segment < 50
    mean_speed = 12.0 if congested else 28.0
    speed = float(max(rng.normal(mean_speed, 5.0), 0.0))
    return (xway * 100 + segment, int(rng.integers(100_000)), speed)


def ref_log_line(rng):
    paths, codes = log_processing._PATHS, log_processing._STATUS_CODES
    path = paths[int(rng.integers(len(paths)))]
    status = codes[int(rng.integers(len(codes)))]
    size = int(rng.integers(200, 20_000))
    return (f"GET {path} {status} {size}",)


def ref_metrics(rng):
    machine = int(rng.integers(200))
    base_cpu = 0.7 if machine % 17 == 0 else 0.35
    cpu = float(np.clip(rng.normal(base_cpu, 0.1), 0.0, 1.0))
    if rng.random() < 0.01:
        cpu = float(np.clip(cpu + rng.uniform(0.3, 0.6), 0.0, 1.0))
    memory = float(np.clip(rng.normal(0.5, 0.15), 0.0, 1.0))
    return (machine, cpu, memory)


def ref_tweet(rng):
    vocabulary = sentiment._ALL_WORDS
    length = int(rng.integers(6, 18))
    words = [
        vocabulary[int(rng.integers(len(vocabulary)))] for _ in range(length)
    ]
    if rng.random() < 0.15:
        words.insert(int(rng.integers(len(words))), "not")
    return (int(rng.integers(50)), " ".join(words))


def ref_sg_reading(rng):
    house = int(rng.integers(40))
    plug = int(rng.integers(20))
    base = 40.0 + 10.0 * (house % 7)
    if (house * 20 + plug) % 13 == 0:
        base *= 2.5
    load = float(max(rng.normal(base, base * 0.2), 0.0))
    return (house * 20 + plug, house, load)


def ref_sd_reading(rng):
    sensor = int(rng.integers(128))
    value = float(max(rng.normal(20.0 + sensor % 10, 3.0), 0.0))
    if rng.random() < 0.02:
        value *= float(rng.uniform(2.0, 4.0))
    return (sensor, value)


def ref_trip(rng):
    def coord():
        if rng.random() < 0.6:
            return float(np.clip(rng.normal(0.5, 0.08), 0.0, 1.0))
        return float(rng.random())

    return (
        coord(),
        coord(),
        coord(),
        coord(),
        float(rng.uniform(3.0, 60.0)),
    )


def ref_lineitem(rng):
    return (
        int(rng.integers(4)),
        int(rng.integers(120)),
        float(rng.integers(1, 50)),
        float(rng.uniform(900.0, 105_000.0)),
        float(rng.uniform(0.0, 0.1)),
    )


def ref_tweet_tags(rng):
    count = int(rng.integers(0, 4))
    tags = []
    for _ in range(count):
        tag = int(1_000 * (rng.random() ** 3))
        tags.append(f"#t{tag}")
    return (" ".join(tags),)


def ref_kv(num_keys):
    """``perf._kv_generate`` (64 keys) and exp4/exp5's closures."""

    def sample(rng):
        return (int(rng.integers(num_keys)), float(rng.random()))

    return sample


# -------------------------------------------------------- the sources

#: How a field is compared with the reference: ``cat`` — few values, the
#: supports are equal as sets and the counts pass a chi-square test;
#: ``ids`` — integers below a bound too large for every value to show
#: up, chi-square over 50 equal buckets; ``real`` — two-sample KS inside
#: the closed range; ``text`` — the per-source tests further down.
CAT, IDS, REAL, TEXT = "cat", "ids", "real", "text"

#: (app, source op) -> (reference sampler, per-field checks, identities)
SOURCES = {
    ("WC", "sentences"): (ref_sentence, [(TEXT,)], []),
    ("AD", "impressions"): (
        ref_impression,
        [(IDS, 5_000), (CAT,), (REAL, 0.01, 2.0)],
        [lambda ad, campaign, cost: campaign == ad % 100],
    ),
    ("AD", "clicks"): (ref_ad_click, [(IDS, 5_000), (REAL, 0.1, 5.0)], []),
    ("BI", "trades"): (
        ref_trade,
        [(CAT,), (REAL, 19.4, 172.01), (REAL, 100.0, 4_999.0)],
        [
            lambda symbol, price, _: around_base(symbol, price, 0.97, 1.03),
            lambda symbol, price, volume: volume == np.floor(volume),
        ],
    ),
    ("BI", "quotes"): (
        ref_quote,
        [(CAT,), (REAL, 18.8, 173.68), (REAL, 100.0, 1_999.0)],
        [
            lambda symbol, ask, _: around_base(symbol, ask, 0.94, 1.04),
            lambda symbol, ask, size: size == np.floor(size),
        ],
    ),
    ("CA", "clicks"): (
        ref_ca_click,
        [(IDS, 50_000), (CAT,), (IDS, 2_000)],
        [lambda visitor, geo, page: geo == visitor % 40],
    ),
    ("FD", "transactions"): (
        ref_transaction,
        [(CAT,), (CAT,), (REAL, 1.0, 2_000.0)],
        [],
    ),
    ("LR", "reports"): (
        ref_report,
        [(CAT,), (IDS, 100_000), (REAL, 0.0, 60.0)],
        [],
    ),
    ("LP", "logs"): (ref_log_line, [(TEXT,)], []),
    ("MO", "metrics"): (
        ref_metrics,
        [(CAT,), (REAL, 0.0, 1.0), (REAL, 0.0, 1.0)],
        [],
    ),
    ("SA", "tweets"): (ref_tweet, [(CAT,), (TEXT,)], []),
    ("SG", "plugs"): (
        ref_sg_reading,
        [(CAT,), (CAT,), (REAL, 0.0, 500.0)],
        [lambda plug_key, house, load: plug_key // 20 == house],
    ),
    ("SD", "sensors"): (ref_sd_reading, [(CAT,), (REAL, 0.0, 200.0)], []),
    ("TQ", "trips"): (
        ref_trip,
        [(REAL, 0.0, 1.0)] * 4 + [(REAL, 3.0, 60.0)],
        [],
    ),
    ("TPCH", "lineitems"): (
        ref_lineitem,
        [
            (CAT,),
            (CAT,),
            (CAT,),
            (REAL, 900.0, 105_000.0),
            (REAL, 0.0, 0.1),
        ],
        [lambda g, d, quantity, p, disc: quantity == np.floor(quantity)],
    ),
    ("TM", "tweets"): (ref_tweet_tags, [(TEXT,)], []),
    ("hotpath", "src"): (ref_kv(64), [(CAT,), (REAL, 0.0, 1.0)], []),
    ("exp4", "src"): (ref_kv(16), [(CAT,), (REAL, 0.0, 1.0)], []),
    ("exp5", "src"): (ref_kv(8), [(CAT,), (REAL, 0.0, 1.0)], []),
}

N = 20_000
#: The statistics are computed at fixed seeds, so this is not a flake
#: rate: a sampler with the right distribution passes, and stays passed.
P_MIN = 1e-3

NUMPY_DTYPES = {
    DataType.INT: np.dtype(np.int64),
    DataType.DOUBLE: np.dtype(np.float64),
    DataType.STRING: np.dtype(object),
}
PYTHON_TYPES = {
    DataType.INT: int,
    DataType.DOUBLE: float,
    DataType.STRING: str,
}


def shipped_plans():
    """name -> plan for everything that ships a source."""
    plans = {
        abbrev: apps.build_app(abbrev, event_rate=1000.0).plan
        for abbrev in apps.REGISTRY
    }
    plans["hotpath"] = perf.hotpath_plan()
    plans["slide8"] = perf.slide8_plan()
    plans["join8"] = perf.join8_plan()
    plans["exp4"] = exp4.elastic_workload_plan()
    plans["exp5"] = exp5.ft_workload_plan()
    return plans


PLANS = shipped_plans()


def source_logic(key, seed):
    """One subtask of a shipped source on its own generator."""
    name, op_id = key
    logic = PLANS[name].operator(op_id).logic_factory()
    logic.setup(OperatorContext(op_id, 0, 1, np.random.default_rng(seed)))
    return logic


def block_columns(key, seed=101, count=N):
    columns, _ = source_logic(key, seed).generate_columns(np.zeros(count))
    return columns


def reference_columns(key, seed=202, count=N):
    sampler = SOURCES[key][0]
    rng = np.random.default_rng(seed)
    rows = [sampler(rng) for _ in range(count)]
    return [np.array(column) for column in zip(*rows)]


def same_counts(ours, theirs):
    """Chi-square homogeneity p-value of two samples of one category set."""
    counts = Counter(ours), Counter(theirs)
    categories = sorted(set(ours) | set(theirs))
    table = [[count[category] for category in categories] for count in counts]
    return stats.chi2_contingency(np.array(table)).pvalue


# ------------------------------------------------ 1. the same distribution


class TestDistributions:
    def test_every_shipped_source_kind_has_a_reference(self):
        shipped = {
            (name, op.op_id)
            for name, plan in PLANS.items()
            if name not in ("slide8", "join8")  # hotpath's source again
            for op in plan.sources()
        }
        assert shipped == set(SOURCES)

    @pytest.mark.parametrize("key", sorted(SOURCES), ids="/".join)
    def test_fields_match_the_reference(self, key):
        _, checks, identities = SOURCES[key]
        name, op_id = key
        fields = PLANS[name].operator(op_id).output_schema.fields
        ours = block_columns(key)
        theirs = reference_columns(key)
        assert len(ours) == len(theirs) == len(fields) == len(checks)
        for field, check, mine, ref in zip(fields, checks, ours, theirs):
            where = (key, field.name)
            assert mine.dtype == NUMPY_DTYPES[field.dtype], where
            assert len(mine) == N, where
            kind = check[0]
            if kind == CAT:
                assert set(mine.tolist()) == set(ref.tolist()), where
                pvalue = same_counts(mine.tolist(), ref.tolist())
            elif kind == IDS:
                bound = check[1]
                assert 0 <= mine.min() and mine.max() < bound, where
                assert len(set(mine.tolist())) > min(bound, N) // 3, where
                pvalue = same_counts(
                    (mine * 50 // bound).tolist(),
                    (ref * 50 // bound).tolist(),
                )
            elif kind == REAL:
                low, high = check[1:]
                assert low <= mine.min() and mine.max() <= high, where
                assert low <= ref.min() and ref.max() <= high, where
                pvalue = stats.ks_2samp(mine, ref).pvalue
            else:
                continue
            assert pvalue > P_MIN, (where, pvalue)
        for identity in identities:
            assert np.all(identity(*ours)), key
            assert np.all(identity(*theirs)), key

    def test_conditional_draws_keep_their_shares(self):
        """The mask-selected branches fire as often as the ``if``s did."""
        ad, _ = block_columns(("AD", "clicks"))
        assert np.mean(ad < 500) == pytest.approx(0.7 + 0.3 * 0.1, abs=0.01)
        account, state, _ = block_columns(("FD", "transactions"))
        walked = (state - account) % 12 <= 1
        assert np.mean(~walked) == pytest.approx(0.03 * 10 / 12, abs=0.005)
        _, value = block_columns(("SD", "sensors"))
        assert np.mean(value > 45.0) == pytest.approx(0.02, abs=0.005)
        _, cpu, _ = block_columns(("MO", "metrics"))
        ref_cpu = reference_columns(("MO", "metrics"))[1]
        assert np.mean(cpu > 0.95) == pytest.approx(
            np.mean(ref_cpu > 0.95), abs=0.005
        )
        pickup_x = block_columns(("TQ", "trips"))[0]
        assert np.mean(np.abs(pickup_x - 0.5) < 0.16) == pytest.approx(
            0.6 * 0.954 + 0.4 * 0.32, abs=0.02
        )

    def test_wordcount_sentences(self):
        (ours,) = block_columns(("WC", "sentences"))
        (theirs,) = reference_columns(("WC", "sentences"))
        mine = [sentence.split(" ") for sentence in ours.tolist()]
        ref = [sentence.split(" ") for sentence in theirs.tolist()]
        lengths = [len(words) for words in mine]
        assert set(lengths) == set(range(4, 10))
        assert same_counts(lengths, [len(w) for w in ref]) > P_MIN
        flat = [word for words in mine for word in words]
        assert set(flat) == set(wordcount._VOCABULARY)
        assert same_counts(flat, [w for words in ref for w in words]) > P_MIN

    def test_sentiment_tweets(self):
        _, ours = block_columns(("SA", "tweets"))
        _, theirs = reference_columns(("SA", "tweets"))
        mine = [text.split(" ") for text in ours.tolist()]
        ref = [text.split(" ") for text in theirs.tolist()]
        lengths = [len(words) for words in mine]
        # 6-17 drawn words plus, for 15% of the tweets, one "not".
        assert set(lengths) == set(range(6, 19))
        assert same_counts(lengths, [len(w) for w in ref]) > P_MIN
        flat = [word for words in mine for word in words]
        assert set(flat) == set(sentiment._ALL_WORDS) | {"not"}
        assert same_counts(flat, [w for words in ref for w in words]) > P_MIN
        negated = [words for words in mine if "not" in words]
        assert all(words.count("not") == 1 for words in negated)
        assert len(negated) / N == pytest.approx(0.15, abs=0.01)
        # The "not" goes before a drawn word, never after the last one;
        # its relative position is uniform as it was.
        assert all(words[-1] != "not" for words in negated)
        assert any(words[0] == "not" for words in negated)
        relative = [words.index("not") / (len(words) - 1) for words in negated]
        ref_relative = [
            words.index("not") / (len(words) - 1)
            for words in ref
            if "not" in words
        ]
        assert stats.ks_2samp(relative, ref_relative).pvalue > P_MIN

    def test_trending_topics_tag_lists(self):
        (ours,) = block_columns(("TM", "tweets"))
        (theirs,) = reference_columns(("TM", "tweets"))

        def tag_ids(column):
            rows = [text.split(" ") if text else [] for text in column]
            assert all(tag.startswith("#t") for tags in rows for tag in tags)
            counts = [len(tags) for tags in rows]
            return counts, [int(tag[2:]) for tags in rows for tag in tags]

        counts, ids = tag_ids(ours.tolist())
        ref_counts, ref_ids = tag_ids(theirs.tolist())
        assert set(counts) == {0, 1, 2, 3}
        assert same_counts(counts, ref_counts) > P_MIN
        assert 0 <= min(ids) and max(ids) < 1_000
        assert stats.ks_2samp(ids, ref_ids).pvalue > P_MIN

    def test_log_lines(self):
        (ours,) = block_columns(("LP", "logs"))
        (theirs,) = reference_columns(("LP", "logs"))

        def parts(column):
            rows = [line.split(" ") for line in column]
            assert all(row[0] == "GET" and len(row) == 4 for row in rows)
            _, paths, statuses, sizes = zip(*rows)
            return paths, statuses, [int(size) for size in sizes]

        paths, statuses, sizes = parts(ours.tolist())
        ref_paths, ref_statuses, ref_sizes = parts(theirs.tolist())
        assert set(paths) == set(log_processing._PATHS)
        assert same_counts(paths, ref_paths) > P_MIN
        codes = {str(code) for code in log_processing._STATUS_CODES}
        assert set(statuses) == codes
        assert same_counts(statuses, ref_statuses) > P_MIN
        assert 200 <= min(sizes) and max(sizes) < 20_000
        assert stats.ks_2samp(sizes, ref_sizes).pvalue > P_MIN


# ------------------------------------------------------ 2. rows are Python


class TestRows:
    @pytest.mark.parametrize("key", sorted(SOURCES), ids="/".join)
    def test_generate_pops_python_values(self, key):
        name, op_id = key
        schema = PLANS[name].operator(op_id).output_schema
        # An app tuple is as large as its schema says; the keyed bench
        # streams keep the 24 bytes their row generators declared.
        size = 24.0
        if name in apps.REGISTRY:
            size = float(schema.tuple_size_bytes())
        expected = [PYTHON_TYPES[field.dtype] for field in schema.fields]
        logic = source_logic(key, 7)
        count = 2 * SOURCE_CHUNK + 3
        for step in range(count):
            now = step * 0.25
            tup = logic.generate(now)
            assert [type(value) for value in tup.values] == expected
            assert tup.event_time == tup.origin_time == now
            assert type(tup.size_bytes) is float and tup.size_bytes == size
            assert tup.key is None
        assert logic.emitted == count

    @pytest.mark.parametrize("key", sorted(SOURCES), ids="/".join)
    def test_rows_and_columns_read_one_stream(self, key):
        count = 3 * SOURCE_CHUNK + 5
        logic = source_logic(key, 13)
        rows = [logic.generate(0.0).values for _ in range(count)]
        columns = block_columns(key, seed=13, count=count)
        assert rows == list(zip(*[column.tolist() for column in columns]))


# ------------------------------------------------------ 3. chunk invariance


TUPLES = 1200


def record_sources(plan):
    """Log every row each source subtask hands to its executor.

    Returns ``{(op_id, subtask): [values, ...]}``, filled as the plan
    runs in this process (a forked shard fills its own copy).
    """
    log: dict = {}

    def recording(factory, op_id):
        def make():
            logic = factory()
            generate = logic.generate
            generate_columns = logic.generate_columns

            def rows():
                return log.setdefault((op_id, logic.ctx.subtask_index), [])

            def one(now):
                tup = generate(now)
                rows().append(tup.values)
                return tup

            def many(nows):
                columns, sizes = generate_columns(nows)
                rows().extend(zip(*[col.tolist() for col in columns]))
                return columns, sizes

            logic.generate = one
            logic.generate_columns = many
            return logic

        return make

    for op in plan.sources():
        op.logic_factory = recording(op.logic_factory, op.op_id)
    return log


def keep_sink_values(plan):
    for op in plan.sinks():
        plan.operators[op.op_id] = builders.sink(
            op.op_id, parallelism=op.parallelism, keep_values=True
        )


def app_plan(abbrev):
    """The app as the runner prepares it: dilated costs, parallelism 2."""
    runner = BenchmarkRunner(
        homogeneous_cluster("m510", 2),
        RunnerConfig(repeats=1, dilation=25.0, seed=11),
    )
    plan = runner.prepare_app(abbrev, 2).plan
    keep_sink_values(plan)
    return plan


def run_recorded(plan, tuples=TUPLES, fork=False, network=None, **config):
    log = record_sources(plan)
    engine = StreamEngine(
        plan,
        homogeneous_cluster("m510", 2, network_spec=network),
        config=SimulationConfig(
            max_tuples_per_source=tuples,
            max_sim_time=3.0,
            warmup_fraction=0.0,
            keep_sink_values=True,
            **config,
        ),
        rng_factory=RngFactory(9),
    )
    engine.shard_force_inline = not fork
    metrics = engine.run()
    sinks = Counter(
        values
        for runtime in engine._runtimes
        if isinstance(runtime.logic, SinkLogic)
        for values in runtime.logic.results
    )
    return log, sinks, metrics


class TestChunkInvariance:
    @pytest.mark.parametrize("abbrev", sorted(apps.REGISTRY))
    def test_scalar_and_batch_read_the_same_rows(self, abbrev):
        """Batch mode accepts every registered app's plan."""
        scalar, _, metrics = run_recorded(app_plan(abbrev))
        per_source = Counter()
        for (op_id, _), rows in scalar.items():
            per_source[op_id] += len(rows)
        assert set(per_source.values()) == {TUPLES}
        small, small_sinks, at_64 = run_recorded(
            app_plan(abbrev), batch_size=64
        )
        large, large_sinks, at_256 = run_recorded(
            app_plan(abbrev), batch_size=256
        )
        assert small == scalar
        assert large == scalar
        assert small_sinks == large_sinks
        assert (
            metrics.source_events
            == at_64.source_events
            == at_256.source_events
        )

    @pytest.mark.parametrize("name", ["hotpath", "WC"])
    def test_scalar_and_batch_sinks_agree(self, name):
        """One stream under both executors: with the arrival times
        already shared (test_universe.py), the sink multisets of these
        two plans are now comparable across executors — and equal."""

        def plan():
            if name == "WC":
                return app_plan("WC")
            hotpath = perf.hotpath_plan(parallelism=2)
            keep_sink_values(hotpath)
            return hotpath

        _, scalar, metrics = run_recorded(plan())
        assert sum(scalar.values()) > 0
        for batch_size in (64, 256):
            _, sinks, other = run_recorded(plan(), batch_size=batch_size)
            assert sinks == scalar, batch_size
            assert other.results == metrics.results

    @pytest.mark.parametrize("abbrev", ["WC", "SG", "AD"])
    def test_shards_read_the_same_rows(self, abbrev):
        network = NetworkSpec(base_latency_s=2e-3)
        scalar, _, _ = run_recorded(app_plan(abbrev), network=network)
        inline, sinks, metrics = run_recorded(
            app_plan(abbrev), network=network, shards=1
        )
        assert inline == scalar
        # A forked shard logs into its own copy: compare what the two
        # shards delivered instead.
        _, forked_sinks, forked = run_recorded(
            app_plan(abbrev), network=network, shards=2, fork=True
        )
        assert forked_sinks == sinks
        assert sum(sinks.values()) > 0
        assert forked.source_events == metrics.source_events
        assert forked.latency.mean == metrics.latency.mean


# ------------------------------------------------------------- 4. one form


class TestOneForm:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_no_shipped_plan_constructs_a_row_generator(self, name):
        sources = list(PLANS[name].sources())
        assert sources
        for op in sources:
            logic = op.logic_factory()
            assert logic.has_vector_generator, op.op_id
            assert logic._generator is None, op.op_id

    def test_exp4_plan_honours_num_keys(self):
        plan = exp4.elastic_workload_plan(num_keys=4)
        logic = plan.operator("src").logic_factory()
        logic.setup(OperatorContext("src", 0, 1, np.random.default_rng(0)))
        (keys, _), _ = logic.generate_columns(np.zeros(500))
        assert set(keys.tolist()) == {0, 1, 2, 3}


# ---------------------------------------------------- 5. both forms rejected


class TestBothFormsRejected:
    @staticmethod
    def row_generator(rng, now):
        raise AssertionError("never called")

    def test_builders_source_rejects_both_forms(self):
        with pytest.raises(ConfigurationError, match="not both"):
            builders.source(
                "src",
                self.row_generator,
                perf._KV_SCHEMA,
                1000.0,
                vector_generator=kv_block(4),
            )

    def test_source_logic_rejects_both_forms(self):
        with pytest.raises(ConfigurationError):
            SourceLogic(self.row_generator, vector_generator=kv_block(4))

    def test_neither_form_is_rejected_too(self):
        with pytest.raises(ConfigurationError):
            builders.source("src", None, perf._KV_SCHEMA, 1000.0)
        with pytest.raises(ConfigurationError):
            SourceLogic(None)


# ------------------------------------------------------ 6. replay draws none


class TestReplayOverABlockSource:
    TUPLES = 300

    #: exp5's two cells (arrivals are over by ~0.1 s) and one failure
    #: that interrupts the arrivals, so generation and recovery overlap.
    SCENARIOS = [spec for _, spec in exp5.DEFAULT_SCENARIOS] + [
        "failure:at=0.05,duration=0.04"
    ]

    @pytest.fixture
    def chunks(self, monkeypatch):
        """Count the chunks exp5's source draws."""
        drawn = []

        def counting(num_keys):
            block = kv_block(num_keys)

            def generate_block(rng, n):
                drawn.append(n)
                return block(rng, n)

            return generate_block

        monkeypatch.setattr(exp5, "kv_block", counting)
        return drawn

    @pytest.mark.parametrize("delivery", exp5.DEFAULT_DELIVERIES)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_replay_redelivers_the_log(self, chunks, scenario, delivery):
        cluster = homogeneous_cluster(num_nodes=4)
        _, oracle = exp5.run_ft_cell(
            cluster, None, None, "exactly_once", 3, self.TUPLES
        )
        whole_chunks = [SOURCE_CHUNK] * -(-self.TUPLES // SOURCE_CHUNK)
        assert chunks == whole_chunks
        del chunks[:]
        ft, values = exp5.run_ft_cell(
            cluster, scenario, 0.05, delivery, 3, self.TUPLES
        )
        assert ft["recoveries"] == 1
        assert ft["replayed_events"] > 0
        assert ft["determinism_errors"] == 0
        # Replay re-reads the source log: not one more chunk is drawn.
        assert chunks == whole_chunks
        missing = Counter(oracle) - Counter(values)
        extra = Counter(values) - Counter(oracle)
        assert not missing
        if delivery == "exactly_once":
            assert not extra
