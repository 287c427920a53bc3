"""Additional correctness tests for application operator logic."""

import numpy as np
import pytest

from repro.sps.tuples import StreamTuple


def tup(*values):
    return StreamTuple(values=values, event_time=0.0)


class TestAdAnalytics:
    def test_ctr_emits_every_nth_update(self):
        from repro.apps.ad_analytics import CtrLogic

        logic = CtrLogic(emit_every=3)
        outputs = []
        for _ in range(7):
            outputs.extend(
                logic.process(tup(11, 4, 0.5, 11, 1.0), 0.0)
            )
        assert len(outputs) == 2  # at updates 3 and 6
        campaign, ctr = outputs[0].values
        assert campaign == 4
        assert 0.0 < ctr <= 1.0

    def test_ctr_state_per_campaign(self):
        from repro.apps.ad_analytics import CtrLogic

        logic = CtrLogic(emit_every=2)
        logic.process(tup(1, 7, 0.5, 1, 1.0), 0.0)
        out_a = logic.process(tup(2, 7, 0.5, 2, 1.0), 0.0)
        out_b = logic.process(tup(3, 9, 0.5, 3, 1.0), 0.0)
        assert out_a and out_a[0].values[0] == 7
        assert out_b == []  # campaign 9 has only one update

    def test_rate_split(self):
        from repro.apps.ad_analytics import build

        query = build(event_rate=90_000.0)
        rates = {
            op.op_id: float(op.metadata["event_rate"])
            for op in query.plan.sources()
        }
        assert rates["impressions"] == pytest.approx(60_000.0)
        assert rates["clicks"] == pytest.approx(30_000.0)


class TestTpch:
    def test_revenue_formula(self):
        from repro.apps.tpch import _revenue

        group, revenue = _revenue((2, 30, 10.0, 1000.0, 0.1))
        assert group == 2
        assert revenue == pytest.approx(900.0)

    def test_shipdate_filter_selectivity(self):
        from repro.apps.tpch import _lineitem_block, build

        query = build(event_rate=1000.0)
        predicate = query.plan.operator(
            "shipdate_filter"
        ).logic_factory().predicate
        columns = _lineitem_block(np.random.default_rng(0), 2000)
        passed = sum(
            predicate.evaluate(tup(*row))
            for row in zip(*[column.tolist() for column in columns])
        )
        assert passed / 2000 == pytest.approx(
            predicate.selectivity_hint, abs=0.05
        )


class TestLogProcessing:
    def test_parse(self):
        from repro.apps.log_processing import _parse

        assert _parse(("GET /index 200 1234",)) == (200, "/index", 1234.0)

    def test_healthz_filtered(self):
        from repro.apps.log_processing import build

        query = build(event_rate=1000.0)
        predicate = query.plan.operator(
            "traffic"
        ).logic_factory().predicate
        assert not predicate.evaluate(tup(200, "/healthz", 1.0))
        assert predicate.evaluate(tup(200, "/index", 1.0))


class TestTaxi:
    def test_route_mapping_deterministic(self):
        from repro.apps.taxi import _to_route

        route_a, fare = _to_route((0.5, 0.5, 0.9, 0.9, 12.0))
        route_b, _ = _to_route((0.5, 0.5, 0.9, 0.9, 50.0))
        assert route_a == route_b
        assert fare == 12.0

    def test_distinct_trips_distinct_routes(self):
        from repro.apps.taxi import _to_route

        near, _ = _to_route((0.1, 0.1, 0.2, 0.2, 5.0))
        far, _ = _to_route((0.8, 0.8, 0.9, 0.9, 5.0))
        assert near != far


class TestWordCountData:
    def test_sentences_nonempty(self):
        from repro.apps.wordcount import _sentence_block

        (sentences,) = _sentence_block(np.random.default_rng(1), 20)
        for sentence in sentences.tolist():
            assert 4 <= len(sentence.split()) <= 10

    def test_common_words_more_frequent(self):
        from repro.apps.wordcount import _VOCABULARY

        assert _VOCABULARY.count("the") > _VOCABULARY.count("flink")


class TestSmartGridData:
    def test_plug_key_encodes_house(self):
        from repro.apps.smart_grid import (
            _PLUGS_PER_HOUSE,
            _reading_block,
        )

        plug_key, house, load = _reading_block(np.random.default_rng(2), 50)
        assert (plug_key // _PLUGS_PER_HOUSE == house).all()
        assert (load >= 0.0).all()

    def test_outlier_scorer_flags_hot_plug(self):
        from repro.apps.smart_grid import HouseOutlierLogic

        logic = HouseOutlierLogic(warmup=2)
        for median in (40.0, 42.0, 41.0):
            out = logic.process(tup(3, median), 0.0)
        hot = logic.process(tup(3, 120.0), 0.0)[0]
        house, plug_median, house_median, score = hot.values
        assert house == 3
        assert score > 2.0
        # normal plug scores near 1
        assert abs(out[0].values[3] - 1.0) < 0.2


class TestSentimentWorkScaling:
    def test_longer_tweets_cost_more(self):
        from repro.apps.sentiment import SentimentLogic

        logic = SentimentLogic()
        short = logic.work_units(tup(1, "ok"))
        long = logic.work_units(tup(1, "word " * 40))
        assert long > short
