"""Tests for the latency model."""

import pytest

from repro.exceptions import ConfigurationError
from repro.pmem.latency import (
    DEFAULT_READ_LATENCY_NS,
    DEFAULT_WRITE_LATENCY_NS,
    LatencyModel,
)


class TestDefaults:
    def test_paper_default_read_latency(self):
        assert LatencyModel().read_ns == 10.0

    def test_paper_default_write_latency(self):
        assert LatencyModel().write_ns == 150.0

    def test_default_constants_match_paper(self):
        assert DEFAULT_READ_LATENCY_NS == 10.0
        assert DEFAULT_WRITE_LATENCY_NS == 150.0

    def test_default_ratio_is_fifteen(self):
        assert LatencyModel().write_read_ratio == pytest.approx(15.0)

    def test_default_is_asymmetric(self):
        model = LatencyModel()
        assert model.write_ns > model.read_ns

    def test_symmetric_model(self):
        model = LatencyModel(read_ns=25.0, write_ns=25.0)
        assert model.write_read_ratio == 1.0


class TestCosts:
    def test_read_cost_scales_linearly(self):
        model = LatencyModel()
        assert model.read_cost_ns(10) == pytest.approx(100.0)

    def test_write_cost_scales_linearly(self):
        model = LatencyModel()
        assert model.write_cost_ns(10) == pytest.approx(1500.0)

    def test_fractional_cachelines_allowed(self):
        model = LatencyModel()
        assert model.read_cost_ns(0.5) == pytest.approx(5.0)

    def test_negative_read_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyModel().read_cost_ns(-1)

    def test_negative_write_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyModel().write_cost_ns(-1)


class TestRatio:
    def test_ratio_follows_both_latencies(self):
        model = LatencyModel(read_ns=20.0, write_ns=160.0)
        assert model.write_read_ratio == pytest.approx(8.0)


class TestValidation:
    @pytest.mark.parametrize("read_ns", [0.0, -5.0])
    def test_invalid_read_latency(self, read_ns):
        with pytest.raises(ConfigurationError):
            LatencyModel(read_ns=read_ns)

    @pytest.mark.parametrize("write_ns", [0.0, -5.0])
    def test_invalid_write_latency(self, write_ns):
        with pytest.raises(ConfigurationError):
            LatencyModel(write_ns=write_ns)

    def test_model_is_frozen(self):
        with pytest.raises(AttributeError):
            LatencyModel().read_ns = 5.0
