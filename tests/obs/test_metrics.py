"""Unit tests for the metrics registry: instruments, labels, exposition."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NULL_REGISTRY,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("jobs_total")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5
        assert c.total == 3.5

    def test_labeled_series_are_independent(self):
        c = Counter("jobs_total", labelnames=("server",))
        c.inc(server="ms-0")
        c.inc(3, server="ms-1")
        assert c.value(server="ms-0") == 1
        assert c.value(server="ms-1") == 3
        assert c.total == 4

    def test_cannot_decrease(self):
        c = Counter("jobs_total")
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_wrong_labels_rejected(self):
        c = Counter("jobs_total", labelnames=("server",))
        with pytest.raises(MetricError):
            c.inc(host="ms-0")
        with pytest.raises(MetricError):
            c.inc()  # missing the label entirely

    def test_cardinality_budget(self):
        c = Counter("jobs_total", labelnames=("k",), max_series=3)
        for i in range(3):
            c.inc(k=str(i))
        with pytest.raises(MetricError):
            c.inc(k="overflow")
        # existing series still work
        c.inc(k="0")
        assert c.value(k="0") == 2


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(5)
        g.dec(2)
        g.inc()
        assert g.value() == 4


class TestSampled:
    def test_reads_the_field_when_read(self):
        registry = MetricsRegistry()
        state = {"jobs": 0, "steals": {}}
        jobs = registry.sampled(
            "gauge", "jobs", "", (), lambda: state["jobs"]
        )
        steals = registry.sampled(
            "counter", "steals_total", "", ("reason",),
            lambda: {(r,): n for r, n in state["steals"].items()},
        )
        state["jobs"] = 3
        state["steals"] = {"imbalance": 2, "offline": 0}
        assert jobs.value() == 3.0
        assert steals.value(reason="imbalance") == 2.0
        assert steals.total == 2.0
        assert steals.labels_series() == [({"reason": "imbalance"}, [2.0])]
        with pytest.raises(MetricError):
            steals.value(server="ms-0")

    def test_a_counter_at_zero_is_not_exposed_a_gauge_is(self):
        registry = MetricsRegistry()
        registry.sampled("counter", "shed_total", "", (), lambda: 0)
        registry.sampled(
            "gauge", "depth", "", ("server",),
            lambda: {("ms-0",): 0, ("ms-1",): 2},
        )
        assert registry.render_exposition() == (
            '# TYPE depth gauge\n'
            'depth{server="ms-0"} 0\n'
            'depth{server="ms-1"} 2\n'
            '# TYPE shed_total counter\n'
        )

    def test_only_counters_and_gauges_are_sampled(self):
        with pytest.raises(MetricError):
            MetricsRegistry().sampled("histogram", "lat", "", (), lambda: 0)


class TestHistogramBucketMath:
    def test_observations_land_in_owning_bucket(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.7, 3.0, 9.0):
            h.observe(v)
        state = h._merged(None)
        # per-bucket (non-cumulative) occupancy, +Inf last
        assert state.bucket_counts == [1, 2, 1, 1]
        assert state.count == 5
        assert state.sum == pytest.approx(15.7)

    def test_boundary_value_belongs_to_its_le_bucket(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        h.observe(1.0)  # le="1" is an inclusive upper bound
        assert h._merged(None).bucket_counts == [1, 0, 0]

    def test_quantiles_interpolate_and_clamp(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.7, 3.0, 3.9):
            h.observe(v)
        p50 = h.quantile(0.5)
        assert 1.0 <= p50 <= 2.0
        # the tail cannot exceed the observed maximum
        assert h.quantile(0.99) <= 3.9
        assert h.quantile(0.0) >= 0.5

    def test_quantile_merges_labeled_series(self):
        h = Histogram("lat", labelnames=("mode",), buckets=(1.0, 10.0))
        h.observe(0.5, mode="serial")
        h.observe(5.0, mode="pipelined")
        assert h.count(mode="serial") == 1
        assert h.total_count() == 2
        assert h.quantile(1.0) <= 5.0
        pcts = h.percentiles()
        assert set(pcts) == {"p50", "p95", "p99"}

    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram("lat")
        assert h.quantile(0.5) is None

    def test_buckets_must_be_ascending_unique(self):
        with pytest.raises(MetricError):
            Histogram("lat", buckets=(2.0, 1.0))
        with pytest.raises(MetricError):
            Histogram("lat", buckets=(1.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        r = MetricsRegistry()
        a = r.counter("jobs_total", "help", labelnames=("server",))
        b = r.counter("jobs_total", "other", labelnames=("server",))
        assert a is b

    def test_kind_redeclare_is_an_error(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(MetricError):
            r.gauge("x")

    def test_label_redeclare_is_an_error(self):
        r = MetricsRegistry()
        r.counter("x", labelnames=("a",))
        with pytest.raises(MetricError):
            r.counter("x", labelnames=("b",))

    def test_null_registry_is_inert(self):
        c = NULL_REGISTRY.counter("anything", labelnames=("whatever",))
        c.inc(unknown_label="fine")  # no validation, no state
        assert c.value() == 0.0
        assert NULL_REGISTRY.render_exposition() == ""
        assert NULL_REGISTRY.get("anything") is None
        assert not NULL_REGISTRY.enabled


class TestExpositionGolden:
    def test_full_exposition_format(self):
        r = MetricsRegistry()
        c = r.counter("sheriff_jobs_total", "Jobs", labelnames=("server",))
        c.inc(2, server="ms-0")
        g = r.gauge("sheriff_depth", "Queue depth")
        g.set(3)
        h = r.histogram("sheriff_lat", "Latency", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9.0)
        expected = "\n".join([
            "# HELP sheriff_depth Queue depth",
            "# TYPE sheriff_depth gauge",
            "sheriff_depth 3",
            "# HELP sheriff_jobs_total Jobs",
            "# TYPE sheriff_jobs_total counter",
            'sheriff_jobs_total{server="ms-0"} 2',
            "# HELP sheriff_lat Latency",
            "# TYPE sheriff_lat histogram",
            'sheriff_lat_bucket{le="1"} 1',
            'sheriff_lat_bucket{le="2"} 2',
            'sheriff_lat_bucket{le="+Inf"} 3',
            "sheriff_lat_sum 11",
            "sheriff_lat_count 3",
        ]) + "\n"
        assert r.render_exposition() == expected

    def test_label_values_are_escaped(self):
        r = MetricsRegistry()
        c = r.counter("x", labelnames=("url",))
        c.inc(url='a"b\\c\nd')
        assert r.render_exposition().splitlines()[-1] == (
            'x{url="a\\"b\\\\c\\nd"} 1'
        )
