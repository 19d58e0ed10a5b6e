"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the event queue.  All other
substrates (VMs, network, cloud provider, failure injector) and the stream
processing runtime schedule their work through it, which is what makes a
complete SPS run on one laptop deterministic and fast.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.errors import ClockError, SimulationError
from repro.sim.events import Event, EventQueue

#: Priority for data-plane events (tuple arrivals, processing completions).
PRIORITY_DATA = 10
#: Priority for control-plane events (checkpoints, reports, scale out);
#: control fires before data at equal timestamps so that e.g. a routing
#: update applies before tuples dispatched at the same instant.
PRIORITY_CONTROL = 5
#: Priority for failures: a crash at time t pre-empts everything else at t.
PRIORITY_FAILURE = 0


class Simulator:
    """A deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, fired.append, "b")
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> sim.run(until=10.0)
    >>> fired
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._seq = 0
        self._running = False
        self._halted = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DATA,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ClockError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DATA,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise ClockError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        self._seq += 1
        event = Event(time, priority, self._seq, callback, args)
        self._queue.push(event)
        return event

    def every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start_after: float | None = None,
        priority: int = PRIORITY_CONTROL,
    ) -> "PeriodicTask":
        """Run ``callback(*args)`` every ``interval`` seconds until stopped.

        The first invocation happens after ``start_after`` seconds
        (defaulting to one full interval).
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive: {interval}")
        task = PeriodicTask(self, interval, callback, args, priority)
        task.start(start_after if start_after is not None else interval)
        return task

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Process events until the queue empties or ``until`` is reached.

        Returns the number of events processed.  ``max_events`` guards
        against runaway feedback loops in tests.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        self._halted = False
        processed = 0
        #: Whether the loop consumed everything due before ``until``.  A
        #: halt() or max_events exit leaves earlier events pending, and
        #: fast-forwarding the clock past them would make a later run()
        #: move time *backwards* when it pops them.
        drained = False
        try:
            while True:
                if self._halted:
                    break
                if max_events is not None and processed >= max_events:
                    break
                next_time = self._queue.peek_time()
                if next_time is None:
                    drained = True
                    break
                if until is not None and next_time > until:
                    drained = True
                    break
                event = self._queue.pop()
                assert event is not None
                self._now = event.time
                callback, args = event.callback, event.args
                event._mark_fired()
                callback(*args)
                processed += 1
            if drained and until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return processed

    def halt(self) -> None:
        """Stop the current :meth:`run` after the in-flight event."""
        self._halted = True


class PeriodicTask:
    """A repeating callback managed by :meth:`Simulator.every`."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., Any],
        args: tuple,
        priority: int,
    ) -> None:
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._args = args
        self._priority = priority
        self._event: Event | None = None
        self._stopped = False
        self.fire_count = 0

    def start(self, delay: float) -> None:
        """Schedule the first firing after ``delay`` seconds.

        A task may only be started once per lifetime: restarting a live
        task would spawn a second concurrent timer chain (both the pending
        event and the new one would each reschedule themselves forever).
        """
        if self._stopped:
            raise SimulationError("periodic task already stopped")
        if self._event is not None and self._event.pending:
            raise SimulationError(
                "periodic task already started (restart would double the "
                "timer chain)"
            )
        self._event = self._sim.schedule(
            delay, self._fire, priority=self._priority
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fire_count += 1
        self._callback(*self._args)
        if not self._stopped:
            self._event = self._sim.schedule(
                self.interval, self._fire, priority=self._priority
            )

    def stop(self) -> None:
        """Permanently stop the periodic task."""
        self._stopped = True
        if self._event is not None and self._event.pending:
            self._event.cancel()
        self._event = None

    @property
    def stopped(self) -> bool:
        return self._stopped


def iter_times(start: float, stop: float, step: float) -> Iterator[float]:
    """Yield ``start, start+step, ...`` strictly below ``stop``.

    Float-safe replacement for ``range`` used by workload generators.
    """
    if step <= 0:
        raise SimulationError(f"step must be positive: {step}")
    n = 0
    t = start
    while t < stop - 1e-12:
        yield t
        n += 1
        t = start + n * step
