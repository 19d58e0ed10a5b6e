"""Measurement infrastructure for simulation runs.

Three building blocks:

* :class:`TimeSeries` — (time, value) samples, e.g. "number of VMs".
* :class:`RateSeries` — counts accumulated into fixed-width time bins,
  e.g. "tuples consumed per second".
* :class:`LatencyReservoir` — weighted latency samples with percentile
  queries, optionally windowed over time so we can plot latency-over-time
  curves like the paper's Figure 7.
* :class:`PhaseTimeline` — the phase-transition record of one
  reconfiguration (scale out / scale in / recovery), so experiments can
  attribute recovery latency to individual phases (Figures 11-13).

All latencies are stored in seconds and reported by the experiment layer
in milliseconds to match the paper's axes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


@dataclass
class TimeSeries:
    """An append-only series of ``(time, value)`` samples."""

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        """Append one sample."""
        if self.times and time < self.times[-1]:
            # Out-of-order control-plane samples are inserted, not rejected:
            # several coordinators may report around the same instant.
            index = bisect.bisect_right(self.times, time)
            self.times.insert(index, time)
            self.values.insert(index, value)
            return
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def last(self, default: float = 0.0) -> float:
        """Most recent value (or ``default`` when empty)."""
        return self.values[-1] if self.values else default

    def value_at(self, time: float, default: float = 0.0) -> float:
        """Value of the most recent sample at or before ``time``."""
        index = bisect.bisect_right(self.times, time) - 1
        if index < 0:
            return default
        return self.values[index]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The series as (times, values) numpy arrays."""
        return np.asarray(self.times), np.asarray(self.values)


@dataclass
class RateSeries:
    """Counts binned into fixed-width intervals, queried as rates."""

    name: str
    bin_width: float = 1.0
    _bins: dict[int, float] = field(default_factory=dict)

    def record(self, time: float, count: float = 1.0) -> None:
        """Append one sample."""
        index = int(time // self.bin_width)
        self._bins[index] = self._bins.get(index, 0.0) + count

    def total(self) -> float:
        """Sum of all recorded counts."""
        return sum(self._bins.values())

    def rate_at(self, time: float) -> float:
        """Rate (count per second) in the bin containing ``time``."""
        return self._bins.get(int(time // self.bin_width), 0.0) / self.bin_width

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (bin centre times, rates) sorted by time."""
        if not self._bins:
            return np.array([]), np.array([])
        indices = np.array(sorted(self._bins))
        times = (indices + 0.5) * self.bin_width
        rates = np.array([self._bins[i] for i in indices]) / self.bin_width
        return times, rates

    def max_rate(self) -> float:
        """Highest per-bin rate observed."""
        if not self._bins:
            return 0.0
        return max(self._bins.values()) / self.bin_width


class LatencyReservoir:
    """Weighted latency samples supporting percentile queries.

    A sample ``(time, latency, weight)`` represents ``weight`` tuples that
    all experienced ``latency``.  Weighted percentiles make the numbers
    meaningful when the runtime uses weighted tuples at high rates.
    """

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self._times: list[float] = []
        self._latencies: list[float] = []
        self._weights: list[float] = []

    def record(self, time: float, latency: float, weight: float = 1.0) -> None:
        """Append one sample."""
        if latency < 0:
            raise ValueError(f"negative latency recorded: {latency}")
        self._times.append(time)
        self._latencies.append(latency)
        self._weights.append(weight)

    def __len__(self) -> int:
        return len(self._latencies)

    @property
    def total_weight(self) -> float:
        return float(sum(self._weights))

    def percentile(
        self, q: float, t_min: float | None = None, t_max: float | None = None
    ) -> float:
        """Weighted percentile ``q`` in [0, 100] over an optional window."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100]: {q}")
        latencies, weights = self._window(t_min, t_max)
        if latencies.size == 0:
            return math.nan
        order = np.argsort(latencies)
        latencies = latencies[order]
        weights = weights[order]
        cumulative = np.cumsum(weights)
        cutoff = q / 100.0 * cumulative[-1]
        index = int(np.searchsorted(cumulative, cutoff, side="left"))
        index = min(index, latencies.size - 1)
        return float(latencies[index])

    def median(self, t_min: float | None = None, t_max: float | None = None) -> float:
        """Weighted median latency."""
        return self.percentile(50, t_min, t_max)

    def mean(self, t_min: float | None = None, t_max: float | None = None) -> float:
        """Weighted mean latency."""
        latencies, weights = self._window(t_min, t_max)
        if latencies.size == 0:
            return math.nan
        return float(np.average(latencies, weights=weights))

    def max(self) -> float:
        """Largest recorded latency."""
        return max(self._latencies) if self._latencies else math.nan

    def over_time(
        self, bin_width: float, q: float = 95.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return (bin centres, percentile-per-bin) — the Fig. 7 curve."""
        if not self._times:
            return np.array([]), np.array([])
        times = np.asarray(self._times)
        bins = (times // bin_width).astype(int)
        centres = []
        values = []
        for b in sorted(set(bins.tolist())):
            mask = bins == b
            lat = np.asarray(self._latencies)[mask]
            wgt = np.asarray(self._weights)[mask]
            order = np.argsort(lat)
            cum = np.cumsum(wgt[order])
            cutoff = q / 100.0 * cum[-1]
            idx = min(int(np.searchsorted(cum, cutoff)), lat.size - 1)
            centres.append((b + 0.5) * bin_width)
            values.append(float(lat[order][idx]))
        return np.asarray(centres), np.asarray(values)

    def _window(
        self, t_min: float | None, t_max: float | None
    ) -> tuple[np.ndarray, np.ndarray]:
        latencies = np.asarray(self._latencies, dtype=float)
        weights = np.asarray(self._weights, dtype=float)
        if t_min is None and t_max is None:
            return latencies, weights
        times = np.asarray(self._times)
        mask = np.ones(times.shape, dtype=bool)
        if t_min is not None:
            mask &= times >= t_min
        if t_max is not None:
            mask &= times <= t_max
        return latencies[mask], weights[mask]


@dataclass
class PhaseSpan:
    """One phase of a reconfiguration: ``[start, end)`` in simulated time."""

    phase: str
    start: float
    end: float | None = None

    @property
    def duration(self) -> float | None:
        """Elapsed simulated seconds, or ``None`` while the phase is open."""
        return None if self.end is None else self.end - self.start


class PhaseTimeline:
    """Phase-transition record of one reconfiguration.

    Every topology change driven by the reconfiguration engine (scale
    out, scale in, recovery) appends one of these to the metrics hub and
    enters each phase in turn.  Experiments query the spans to attribute
    end-to-end recovery latency to VM acquisition, state partitioning,
    transfer, restore and replay (the breakdown behind Figures 11-13).
    """

    def __init__(
        self, kind: str, op_name: str, slot_uids: list[int], started_at: float
    ) -> None:
        self.kind = kind
        self.op_name = op_name
        #: Slot uids involved: the replaced slot(s) plus, once known, the
        #: uids of the new partitions.
        self.slot_uids: list[int] = list(slot_uids)
        self.started_at = started_at
        self.spans: list[PhaseSpan] = []
        #: ``"done"`` or ``"aborted"`` once the reconfiguration finished.
        self.outcome: str | None = None

    def enter(self, phase: str, time: float) -> None:
        """Close the open span (if any) and start ``phase`` at ``time``."""
        if self.spans and self.spans[-1].end is None:
            self.spans[-1].end = time
        self.spans.append(PhaseSpan(phase, time))

    def close(self, time: float, outcome: str) -> None:
        """Close the open span and record the terminal outcome."""
        if self.spans and self.spans[-1].end is None:
            self.spans[-1].end = time
        self.outcome = outcome

    def add_slots(self, slot_uids: list[int]) -> None:
        """Record additional involved slots (new partitions, once created)."""
        for uid in slot_uids:
            if uid not in self.slot_uids:
                self.slot_uids.append(uid)

    @property
    def phases(self) -> list[str]:
        """Phase names in transition order."""
        return [span.phase for span in self.spans]

    def span(self, phase: str) -> PhaseSpan | None:
        """The first span of ``phase``, if the timeline entered it."""
        for candidate in self.spans:
            if candidate.phase == phase:
                return candidate
        return None

    def phase_duration(self, phase: str, default: float = 0.0) -> float:
        """Total time spent in ``phase`` across all its spans."""
        total = 0.0
        seen = False
        for candidate in self.spans:
            if candidate.phase == phase and candidate.end is not None:
                total += candidate.end - candidate.start
                seen = True
        return total if seen else default

    def total_duration(self) -> float | None:
        """Start of the first span to end of the last closed span."""
        if not self.spans or self.spans[-1].end is None:
            return None
        return self.spans[-1].end - self.spans[0].start

    def as_rows(self) -> list[tuple[str, float, float | None]]:
        """``(phase, start, end)`` rows for tabular export."""
        return [(span.phase, span.start, span.end) for span in self.spans]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = " -> ".join(self.phases)
        return f"PhaseTimeline({self.kind} {self.op_name}: {inner})"


class MetricsHub:
    """Registry of all metric objects produced during one simulation run."""

    def __init__(self) -> None:
        self.time_series: dict[str, TimeSeries] = {}
        self.rate_series: dict[str, RateSeries] = {}
        self.latencies: dict[str, LatencyReservoir] = {}
        self.counters: dict[str, float] = {}
        self.events: list[tuple[float, str, str]] = []
        self.phase_timelines: list[PhaseTimeline] = []
        #: Event listeners, called as ``listener(time, kind, detail,
        #: fields)`` on every :meth:`mark_event` (the telemetry layer
        #: mirrors events into its structured log through this).
        self._event_listeners: list[
            Callable[[float, str, str, dict[str, Any]], None]
        ] = []

    def timeseries(self, name: str) -> TimeSeries:
        """Get-or-create a time series by name."""
        series = self.time_series.get(name)
        if series is None:
            series = TimeSeries(name)
            self.time_series[name] = series
        return series

    def rate(self, name: str, bin_width: float = 1.0) -> RateSeries:
        """Get-or-create a rate series by name."""
        series = self.rate_series.get(name)
        if series is None:
            series = RateSeries(name, bin_width)
            self.rate_series[name] = series
        return series

    def latency(self, name: str) -> LatencyReservoir:
        """Get-or-create a latency reservoir by name."""
        reservoir = self.latencies.get(name)
        if reservoir is None:
            reservoir = LatencyReservoir(name)
            self.latencies[name] = reservoir
        return reservoir

    # ------------------------------------------------------------ events

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add to a named counter."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        """Read a named counter (0 when absent)."""
        return self.counters.get(name, 0.0)

    def on_event(
        self, listener: Callable[[float, str, str, dict[str, Any]], None]
    ) -> None:
        """Register a listener invoked on every :meth:`mark_event`."""
        self._event_listeners.append(listener)

    def mark_event(
        self, time: float, kind: str, detail: str = "", **fields: Any
    ) -> None:
        """Record a control-plane event (scale out, failure, recovery...).

        ``fields`` are extra structured attributes forwarded to event
        listeners (and thus into JSONL traces); the in-memory event list
        keeps the compact ``(time, kind, detail)`` form.
        """
        self.events.append((time, kind, detail))
        for listener in self._event_listeners:
            listener(time, kind, detail, fields)

    def events_of_kind(self, kind: str) -> list[tuple[float, str, str]]:
        """All recorded control-plane events of one kind."""
        return [e for e in self.events if e[1] == kind]

    def start_phase_timeline(
        self, kind: str, op_name: str, slot_uids: list[int], time: float
    ) -> PhaseTimeline:
        """Open and register the timeline for one reconfiguration."""
        timeline = PhaseTimeline(kind, op_name, slot_uids, time)
        self.phase_timelines.append(timeline)
        return timeline

    def timelines(
        self,
        kind: str | None = None,
        op_name: str | None = None,
        slot_uid: int | None = None,
    ) -> list[PhaseTimeline]:
        """Query recorded reconfiguration timelines by kind/operator/slot."""
        result = self.phase_timelines
        if kind is not None:
            result = [t for t in result if t.kind == kind]
        if op_name is not None:
            result = [t for t in result if t.op_name == op_name]
        if slot_uid is not None:
            result = [t for t in result if slot_uid in t.slot_uids]
        return list(result)
