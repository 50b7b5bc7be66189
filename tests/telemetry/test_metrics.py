"""Metrics registry: instruments, labels, deterministic export."""

import json

import pytest

from repro.telemetry import (Counter, Gauge, Histogram, MetricsRegistry,
                             NullMetricsRegistry)


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_keeps_series(self):
        g = Gauge()
        g.set(1.0)
        g.set(0.5)
        assert g.value == 0.5
        assert g.series == [1.0, 0.5]
        assert g.summary() == {"value": 0.5, "observations": 2}


class TestHistogram:
    def test_percentiles_nearest_rank(self):
        h = Histogram()
        for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
            h.observe(v)
        assert h.percentile(0) == 1.0
        assert h.percentile(50) == 3.0
        assert h.percentile(100) == 5.0

    def test_summary_fields(self):
        h = Histogram()
        h.observe(2.0)
        h.observe(4.0)
        summary = h.summary()
        assert summary["count"] == 2
        assert summary["mean"] == 3.0
        assert summary["min"] == 2.0 and summary["max"] == 4.0

    def test_empty_histogram(self):
        assert Histogram().summary() == {"count": 0}
        with pytest.raises(ValueError):
            Histogram().percentile(50)

    def test_percentile_range_checked(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)


class TestMetricsRegistry:
    def test_get_or_create_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("nic.bytes", pcb=3)
        b = reg.counter("nic.bytes", pcb=3)
        c = reg.counter("nic.bytes", pcb=4)
        assert a is b and a is not c
        assert len(reg) == 2

    def test_type_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_collect_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc(1)
        reg.gauge("a.first", pcb=1).set(0.5)
        rows = reg.collect()
        assert [r["name"] for r in rows] == ["a.first", "z.last"]
        assert rows[0]["labels"] == {"pcb": 1}
        assert rows[0]["type"] == "gauge"
        assert rows[1]["type"] == "counter"

    def test_jsonl_is_byte_stable(self):
        def build():
            reg = MetricsRegistry()
            reg.histogram("epoch.seconds").observe(1.5)
            reg.counter("retries", pcb=0).inc(3)
            return reg
        assert build().to_jsonl() == build().to_jsonl()
        for line in build().to_jsonl().splitlines():
            json.loads(line)

    def test_write_jsonl(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("retries").inc()
        path = tmp_path / "metrics.jsonl"
        reg.write_jsonl(path)
        assert json.loads(path.read_text())["name"] == "retries"


class TestNullRegistry:
    def test_all_instruments_are_noop(self):
        reg = NullMetricsRegistry()
        assert reg.enabled is False
        reg.counter("a").inc(5)
        reg.gauge("b").set(1)
        reg.histogram("c").observe(2)
        assert reg.collect() == []


class TestHistogramReservoir:
    def test_exact_stats_survive_sampling(self):
        h = Histogram(reservoir=16)
        for i in range(1000):
            h.observe(float(i))
        assert len(h.observations) == 16
        s = h.summary()
        assert s["count"] == 1000
        assert s["sum"] == sum(range(1000))
        assert s["min"] == 0.0 and s["max"] == 999.0
        assert s["mean"] == pytest.approx(499.5)
        assert s["sampled"] == 16

    def test_no_sampling_below_capacity(self):
        h = Histogram(reservoir=100)
        for i in range(50):
            h.observe(float(i))
        assert h.observations == [float(i) for i in range(50)]
        assert "sampled" not in h.summary()
        assert h.percentile(50) == 24.0        # still exact (nearest rank)

    def test_sampling_is_deterministic(self):
        def build():
            h = Histogram(reservoir=8)
            for i in range(500):
                h.observe(float(i))
            return h.observations
        assert build() == build()

    @pytest.mark.parametrize("reservoir", [None, 64])
    def test_observe_many_unboxes_arrays_once(self, reservoir):
        """An ndarray goes through ``tolist`` — same floats, same order
        as the list it replaces (ordered sum, one RNG draw per value)."""
        import numpy as np
        values = np.random.default_rng(0).exponential(100.0, 5000)
        from_array, from_list = Histogram(reservoir), Histogram(reservoir)
        for part in (values[:3000], values[3000:]):
            from_array.observe_many(part)
            from_list.observe_many([float(v) for v in part])
        assert from_array.summary() == from_list.summary()
        assert from_array.observations == from_list.observations
        assert all(type(v) is float for v in from_array.observations)

    def test_sampled_percentiles_stay_in_range(self):
        h = Histogram(reservoir=32)
        for i in range(10_000):
            h.observe(float(i))
        for p in (0, 50, 90, 99, 100):
            assert 0.0 <= h.percentile(p) <= 9999.0
        # the median of a uniform stream lands near the true median
        assert abs(h.percentile(50) - 5000.0) < 2500.0

    def test_unbounded_mode_unchanged(self):
        h = Histogram()
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        assert h.observations == [3.0, 1.0, 2.0]
        s = h.summary()
        assert s["count"] == 3 and "sampled" not in s

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Histogram(reservoir=0)

    def test_registry_knob_applies_to_histograms_only(self):
        reg = MetricsRegistry(histogram_reservoir=4)
        h = reg.histogram("epoch.seconds")
        for i in range(100):
            h.observe(float(i))
        assert len(h.observations) == 4
        assert h.summary()["count"] == 100
        assert reg.histogram("epoch.seconds") is h      # get-or-create
        reg.counter("c").inc()                          # unaffected kinds
        assert reg.counter("c").value == 1.0

    def test_write_jsonl_gzip(self, tmp_path):
        import gzip
        reg = MetricsRegistry()
        reg.counter("retries").inc(2)
        path = tmp_path / "metrics.jsonl.gz"
        reg.write_jsonl(path)
        with gzip.open(path, "rt") as fh:
            assert json.loads(fh.read())["value"] == 2.0
