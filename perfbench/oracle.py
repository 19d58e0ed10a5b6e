"""Exactly-once oracle for the windowed word count.

The expected result of every (word, window) cell is computed from the
tuples captured at the sources' ``inject``: a sentence created at
simulated time ``t`` adds its weight once per word occurrence to window
``floor(t / width)``.  The sink collector is compared against it for
every window that must have been flushed and delivered before the run
ended.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable


def expected_counts(
    injected: Iterable[tuple[float, tuple, int]], width: float
) -> Counter:
    """(word, window) -> count over every captured injection."""
    counts: Counter = Counter()
    floor = math.floor
    for created_at, words, weight in injected:
        index = int(floor(created_at / width))
        for word in words:
            counts[(word, index)] += weight
    return counts


def last_checked_window(duration: float, width: float, grace: float) -> int:
    """Highest window index whose results must have reached the sink.

    Window ``k`` closes at ``(k + 1) * width``; the counter flushes it on
    the first timer tick at least ``grace`` later, and ticks come every
    ``width`` seconds whatever their phase, so the result is emitted by
    ``(k + 1) * width + grace + width`` at the latest.
    """
    return int(math.floor((duration - grace) / width)) - 2


@dataclass
class OracleReport:
    """Outcome of one comparison."""

    checked: int
    missing: int
    wrong: int
    windows: int

    @property
    def failed(self) -> int:
        return self.missing + self.wrong


def compare(
    expected: Counter, results: dict[tuple[Any, int], Any], last_window: int
) -> OracleReport:
    """Check every cell of windows ``0..last_window``.

    A cell the oracle expects but the sink lacks is *missing*; a cell
    with another value, or one the sink holds that the oracle does not
    expect, is *wrong*.
    """
    want = {cell: n for cell, n in expected.items() if cell[1] <= last_window}
    got = {
        cell: value
        for cell, value in results.items()
        if 0 <= cell[1] <= last_window
    }
    missing = sum(1 for cell in want if cell not in got)
    wrong = sum(1 for cell, n in want.items() if cell in got and got[cell] != n)
    wrong += sum(1 for cell in got if cell not in want)
    return OracleReport(
        checked=len(want) + sum(1 for cell in got if cell not in want),
        missing=missing,
        wrong=wrong,
        windows=last_window + 1,
    )


def check_sub_run(run: Any) -> OracleReport:
    """Compare one finished :class:`~workloads.SubRun` against its input."""
    expected = expected_counts(run.injected, run.window)
    last = last_checked_window(run.duration, run.window, run.grace)
    return compare(expected, run.query.collector.results, last)
