"""Unit tests for the Cost & Performance Evaluator."""

import math

import pytest

from repro.core.config import HyRDConfig
from repro.core.evaluator import CostPerformanceEvaluator
from repro.faults import OutageWindow


@pytest.fixture
def evaluator(providers):
    return CostPerformanceEvaluator(list(providers.values()), HyRDConfig())


class TestClassification:
    def test_reproduces_table2_category_row(self, evaluator):
        profiles = evaluator.evaluate()
        assert profiles["amazon_s3"].is_cost_oriented
        assert not profiles["amazon_s3"].is_performance_oriented
        assert profiles["azure"].is_performance_oriented
        assert not profiles["azure"].is_cost_oriented
        assert profiles["aliyun"].is_cost_oriented
        assert profiles["aliyun"].is_performance_oriented  # "Both"
        assert profiles["rackspace"].is_cost_oriented
        assert not profiles["rackspace"].is_performance_oriented

    def test_performance_ranking(self, evaluator):
        assert evaluator.performance_oriented() == ["aliyun", "azure"]

    def test_cost_ranking_cheapest_first(self, evaluator):
        assert evaluator.cost_oriented() == ["aliyun", "amazon_s3", "rackspace"]

    def test_ranked_by_speed(self, evaluator):
        ranked = evaluator.ranked_by_speed()
        assert ranked[0] == "aliyun"
        assert ranked[-1] == "rackspace"

    def test_lazy_evaluation(self, evaluator):
        # Queries trigger evaluate() implicitly.
        assert evaluator.profiles == {}
        evaluator.performance_oriented()
        assert evaluator.profiles


class TestProbing:
    def test_probes_are_metered(self, providers, evaluator):
        evaluator.evaluate()
        usage = providers["aliyun"].meter.total_usage()
        assert usage.bytes_in > 0  # probe puts
        assert usage.bytes_out > 0  # probe gets

    def test_unavailable_provider_scores_inf(self, providers):
        providers["azure"].faults.add(OutageWindow(0.0))
        ev = CostPerformanceEvaluator(list(providers.values()), HyRDConfig())
        profiles = ev.evaluate()
        assert math.isinf(profiles["azure"].latency_score)
        assert "azure" not in ev.performance_oriented()

    def test_all_unavailable_raises(self, providers):
        for p in providers.values():
            p.faults.add(OutageWindow(0.0))
        ev = CostPerformanceEvaluator(list(providers.values()), HyRDConfig())
        with pytest.raises(RuntimeError):
            ev.evaluate()

    def test_validation(self, providers):
        with pytest.raises(ValueError):
            CostPerformanceEvaluator([], HyRDConfig())
        with pytest.raises(ValueError):
            CostPerformanceEvaluator(
                list(providers.values()), HyRDConfig(), probe_repeats=0
            )


class TestConfigKnobs:
    def test_perf_fraction_widens_class(self, providers):
        ev = CostPerformanceEvaluator(
            list(providers.values()), HyRDConfig(perf_fraction=0.75)
        )
        assert len(ev.performance_oriented()) == 3

    def test_cost_percentile_narrows_class(self, providers):
        ev = CostPerformanceEvaluator(
            list(providers.values()), HyRDConfig(cost_percentile=25.0)
        )
        assert ev.cost_oriented() == ["aliyun"]
