"""Performance and reliability-efficiency metrics."""

import math

import pytest

from repro.errors import ReproError
from repro.metrics.perf import (
    aggregate_weighted_avf,
    harmonic_mean_weighted_ipc,
    ipc,
    weighted_speedup,
)
from repro.metrics.reliability import (
    normalize_to_baseline,
    reliability_efficiency,
)


class TestIpc:
    def test_basic(self):
        assert ipc(200, 100) == 2.0

    def test_rejects_zero_cycles(self):
        with pytest.raises(ReproError):
            ipc(100, 0)


class TestWeightedSpeedup:
    def test_equal_performance_gives_thread_count(self):
        assert weighted_speedup([1.0, 2.0], [1.0, 2.0]) == pytest.approx(2.0)

    def test_half_speed_threads(self):
        assert weighted_speedup([0.5, 1.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ReproError):
            weighted_speedup([1.0], [1.0, 2.0])

    def test_rejects_zero_reference(self):
        with pytest.raises(ReproError):
            weighted_speedup([1.0], [0.0])


class TestHarmonicIpc:
    def test_balanced_threads(self):
        assert harmonic_mean_weighted_ipc([1.0, 1.0], [2.0, 2.0]) == pytest.approx(0.5)

    def test_punishes_imbalance(self):
        balanced = harmonic_mean_weighted_ipc([1.0, 1.0], [2.0, 2.0])
        starved = harmonic_mean_weighted_ipc([1.9, 0.1], [2.0, 2.0])
        assert starved < balanced

    def test_zero_thread_collapses_metric(self):
        assert harmonic_mean_weighted_ipc([0.0, 1.0], [1.0, 1.0]) == 0.0


class TestAggregateWeightedAvf:
    def test_work_weighting(self):
        avfs = {0: 0.2, 1: 0.6}
        work = {0: 0.75, 1: 0.25}
        assert aggregate_weighted_avf(avfs, work) == pytest.approx(0.3)

    def test_rejects_zero_work(self):
        with pytest.raises(ReproError):
            aggregate_weighted_avf({0: 0.1}, {0: 0.0})


class TestReliabilityEfficiency:
    def test_ratio(self):
        assert reliability_efficiency(2.0, 0.5) == 4.0

    def test_zero_avf_is_infinite(self):
        assert reliability_efficiency(1.0, 0.0) == float("inf")

    def test_dead_point_is_nan_not_inf(self):
        # 0 IPC / 0 AVF did no work and exposed nothing: the indeterminate
        # 0/0, not the flattering inf a bare zero-AVF check would produce.
        assert math.isnan(reliability_efficiency(0.0, 0.0))

    def test_dead_point_renders_as_na(self):
        from repro.experiments.formatting import render_table

        table = render_table("t", ["name", "ipc/avf"],
                             [["dead", reliability_efficiency(0.0, 0.0)],
                              ["ideal", reliability_efficiency(1.0, 0.0)]])
        assert "n/a" in table
        assert "inf" in table


class TestNormalize:
    def test_baseline_becomes_one(self):
        values = {"ICOUNT": 2.0, "FLUSH": 3.0, "STALL": 1.0}
        out = normalize_to_baseline(values, "ICOUNT")
        assert out["ICOUNT"] == 1.0
        assert out["FLUSH"] == pytest.approx(1.5)
        assert out["STALL"] == pytest.approx(0.5)

    def test_zero_baseline(self):
        out = normalize_to_baseline({"a": 0.0, "b": 2.0}, "a")
        assert out["b"] == float("inf")
