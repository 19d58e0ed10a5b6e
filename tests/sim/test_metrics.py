"""Tests for the metrics infrastructure, including property-based checks
on the weighted percentile implementation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import (
    LatencyReservoir,
    MetricsHub,
    PhaseTimeline,
    RateSeries,
    TimeSeries,
)


class TestTimeSeries:
    def test_record_and_read(self):
        series = TimeSeries("x")
        series.record(1.0, 10.0)
        series.record(2.0, 20.0)
        assert series.last() == 20.0
        assert len(series) == 2

    def test_value_at(self):
        series = TimeSeries("x")
        series.record(1.0, 10.0)
        series.record(5.0, 50.0)
        assert series.value_at(0.5) == 0.0
        assert series.value_at(1.0) == 10.0
        assert series.value_at(3.0) == 10.0
        assert series.value_at(9.0) == 50.0

    def test_out_of_order_samples_inserted(self):
        series = TimeSeries("x")
        series.record(5.0, 50.0)
        series.record(1.0, 10.0)
        assert series.times == [1.0, 5.0]
        assert series.value_at(2.0) == 10.0

    def test_as_arrays(self):
        series = TimeSeries("x")
        series.record(1.0, 2.0)
        times, values = series.as_arrays()
        assert times.tolist() == [1.0]
        assert values.tolist() == [2.0]


class TestRateSeries:
    def test_rate_binning(self):
        series = RateSeries("r", bin_width=1.0)
        series.record(0.2, 5)
        series.record(0.9, 5)
        series.record(1.5, 3)
        assert series.rate_at(0.5) == 10.0
        assert series.rate_at(1.5) == 3.0
        assert series.total() == 13.0

    def test_max_rate(self):
        series = RateSeries("r", bin_width=2.0)
        series.record(0.0, 10)
        series.record(3.0, 30)
        assert series.max_rate() == 15.0

    def test_series_sorted(self):
        series = RateSeries("r")
        series.record(5.2, 1)
        series.record(1.1, 1)
        times, rates = series.series()
        assert times.tolist() == [1.5, 5.5]
        assert rates.tolist() == [1.0, 1.0]

    def test_empty(self):
        times, rates = RateSeries("r").series()
        assert times.size == 0 and rates.size == 0
        assert RateSeries("r").max_rate() == 0.0

    def test_samples_on_bin_boundaries_accumulate(self):
        series = RateSeries("r", bin_width=0.5)
        series.record(1.0, 2)
        series.record(1.0, 3)
        series.record(1.49, 1)
        assert series.rate_at(1.2) == 12.0  # 6 samples / 0.5s bin
        assert series.total() == 6.0


class TestPhaseTimeline:
    def build(self):
        timeline = PhaseTimeline("recovery", "counter", [7], 1.0)
        timeline.enter("PLAN", 1.0)
        timeline.enter("ACQUIRE_VMS", 1.0)
        timeline.enter("TRANSFER", 2.0)
        timeline.enter("DONE", 5.5)
        timeline.close(5.5, "done")
        return timeline

    def test_enter_closes_previous_span(self):
        timeline = self.build()
        assert timeline.phases == ["PLAN", "ACQUIRE_VMS", "TRANSFER", "DONE"]
        assert timeline.span("PLAN").duration == 0.0
        assert timeline.span("ACQUIRE_VMS").duration == 1.0
        assert timeline.span("TRANSFER").duration == 3.5
        assert timeline.outcome == "done"

    def test_phase_duration_and_total(self):
        timeline = self.build()
        assert timeline.phase_duration("TRANSFER") == 3.5
        assert timeline.phase_duration("MISSING") == 0.0
        assert timeline.phase_duration("MISSING", default=math.nan) is not None
        assert timeline.total_duration() == 4.5

    def test_as_rows(self):
        timeline = self.build()
        rows = timeline.as_rows()
        assert rows[0] == ("PLAN", 1.0, 1.0)
        assert rows[-1] == ("DONE", 5.5, 5.5)

    def test_add_slots_deduplicates(self):
        timeline = PhaseTimeline("scale_out", "counter", [7], 0.0)
        timeline.add_slots([7, 8, 9])
        timeline.add_slots([8, 10])
        assert timeline.slot_uids == [7, 8, 9, 10]

    def test_open_span_has_no_duration(self):
        timeline = PhaseTimeline("scale_out", "counter", [1], 0.0)
        timeline.enter("PLAN", 0.0)
        assert timeline.span("PLAN").duration is None
        assert timeline.outcome is None


class TestTimelineRegistry:
    def test_start_and_query(self):
        hub = MetricsHub()
        a = hub.start_phase_timeline("scale_out", "counter", [1], 0.0)
        b = hub.start_phase_timeline("recovery", "counter", [2], 1.0)
        c = hub.start_phase_timeline("recovery", "mid", [3], 2.0)
        assert hub.timelines() == [a, b, c]
        assert hub.timelines(kind="recovery") == [b, c]
        assert hub.timelines(kind="recovery", op_name="counter") == [b]
        assert hub.timelines(slot_uid=3) == [c]
        assert hub.timelines(kind="scale_in") == []


class TestLatencyReservoir:
    def test_simple_percentiles(self):
        res = LatencyReservoir()
        for i in range(1, 101):
            res.record(0.0, float(i))
        assert res.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert res.percentile(95) == pytest.approx(95.0, abs=1.0)
        assert res.median() == res.percentile(50)

    def test_weights_shift_percentiles(self):
        res = LatencyReservoir()
        res.record(0.0, 1.0, weight=99)
        res.record(0.0, 100.0, weight=1)
        assert res.percentile(50) == 1.0
        assert res.percentile(99.9) == 100.0

    def test_window_filtering(self):
        res = LatencyReservoir()
        res.record(1.0, 10.0)
        res.record(5.0, 20.0)
        assert res.percentile(50, t_min=2.0) == 20.0
        assert res.percentile(50, t_max=2.0) == 10.0

    def test_empty_returns_nan(self):
        assert math.isnan(LatencyReservoir().percentile(50))
        assert math.isnan(LatencyReservoir().mean())

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyReservoir().record(0.0, -1.0)

    def test_bad_percentile_rejected(self):
        res = LatencyReservoir()
        res.record(0.0, 1.0)
        with pytest.raises(ValueError):
            res.percentile(101)

    def test_over_time_bins(self):
        res = LatencyReservoir()
        for t in range(10):
            res.record(float(t), float(t))
        centres, values = res.over_time(bin_width=5.0, q=50.0)
        assert centres.tolist() == [2.5, 7.5]
        assert values[0] < values[1]

    def test_mean_weighted(self):
        res = LatencyReservoir()
        res.record(0.0, 0.0, weight=3)
        res.record(0.0, 4.0, weight=1)
        assert res.mean() == pytest.approx(1.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.integers(min_value=1, max_value=10),
            ),
            min_size=1,
            max_size=50,
        ),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_percentile_matches_expanded_samples(self, samples, q):
        """Weighted percentile == percentile of the weight-expanded list."""
        res = LatencyReservoir()
        expanded = []
        for latency, weight in samples:
            res.record(0.0, latency, weight)
            expanded.extend([latency] * weight)
        expanded.sort()
        got = res.percentile(q)
        # Expected: smallest value whose cumulative weight reaches q%.
        cutoff = q / 100.0 * len(expanded)
        index = min(int(np.searchsorted(np.arange(1, len(expanded) + 1), cutoff)),
                    len(expanded) - 1)
        assert got == pytest.approx(expanded[index])

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_percentile_monotone_in_q(self, latencies):
        res = LatencyReservoir()
        for latency in latencies:
            res.record(0.0, latency)
        values = [res.percentile(q) for q in (0, 25, 50, 75, 100)]
        assert values == sorted(values)
        assert values[-1] == max(latencies)


class TestLatencyReservoirEdgeCases:
    def test_empty_reservoir_windowed_is_nan(self):
        res = LatencyReservoir()
        assert math.isnan(res.percentile(50, t_min=0.0, t_max=10.0))
        assert math.isnan(res.mean(t_min=0.0))

    def test_point_window_t_min_equals_t_max(self):
        """Both bounds are inclusive: a point window keeps exact hits."""
        res = LatencyReservoir()
        res.record(1.0, 10.0)
        res.record(2.0, 20.0)
        res.record(3.0, 30.0)
        assert res.percentile(50, t_min=2.0, t_max=2.0) == 20.0
        assert math.isnan(res.percentile(50, t_min=2.5, t_max=2.5))

    def test_single_sample_window(self):
        """Any q over one sample returns that sample."""
        res = LatencyReservoir()
        res.record(1.0, 10.0)
        res.record(9.0, 90.0)
        for q in (0, 50, 100):
            assert res.percentile(q, t_min=5.0, t_max=10.0) == 90.0
        assert res.mean(t_min=5.0) == 90.0

    def test_inverted_window_is_empty(self):
        res = LatencyReservoir()
        res.record(1.0, 10.0)
        assert math.isnan(res.percentile(50, t_min=2.0, t_max=1.5))


class TestPhaseTimelineReopened:
    def test_as_rows_preserves_entry_order_on_reopened_phase(self):
        """A phase entered twice (e.g. TRANSFER retried after a mid-flight
        failure) yields two rows, in entry order, each with its own span."""
        timeline = PhaseTimeline("recovery", "counter", [7], 0.0)
        timeline.enter("PLAN", 0.0)
        timeline.enter("TRANSFER", 1.0)
        timeline.enter("PLAN", 3.0)
        timeline.enter("TRANSFER", 4.0)
        timeline.enter("DONE", 6.0)
        timeline.close(6.0, "done")
        rows = timeline.as_rows()
        assert [r[0] for r in rows] == [
            "PLAN", "TRANSFER", "PLAN", "TRANSFER", "DONE",
        ]
        starts = [r[1] for r in rows]
        assert starts == sorted(starts)
        assert rows[1] == ("TRANSFER", 1.0, 3.0)
        assert rows[3] == ("TRANSFER", 4.0, 6.0)
        # total spans first start → last end, across the reopened phases
        assert timeline.total_duration() == 6.0


class TestMetricsHub:
    def test_lazily_creates_metrics(self):
        hub = MetricsHub()
        assert hub.timeseries("a") is hub.timeseries("a")
        assert hub.rate("b") is hub.rate("b")
        assert hub.latency("c") is hub.latency("c")

    def test_counters(self):
        hub = MetricsHub()
        hub.increment("n")
        hub.increment("n", 2.5)
        assert hub.counter("n") == 3.5
        assert hub.counter("missing") == 0.0

    def test_events(self):
        hub = MetricsHub()
        hub.mark_event(1.0, "failure", "vm 3")
        hub.mark_event(2.0, "recovery_complete", "")
        assert hub.events_of_kind("failure") == [(1.0, "failure", "vm 3")]

    def test_event_listeners_receive_structured_fields(self):
        hub = MetricsHub()
        seen = []
        hub.on_event(lambda t, kind, detail, fields: seen.append(
            (t, kind, detail, fields)
        ))
        hub.mark_event(1.0, "failure", "vm 3", slot=7)
        assert seen == [(1.0, "failure", "vm 3", {"slot": 7})]
        # the legacy tuple log is unchanged by extra fields
        assert hub.events_of_kind("failure") == [(1.0, "failure", "vm 3")]
