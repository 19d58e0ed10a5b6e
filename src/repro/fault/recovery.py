"""Recovery coordinator (§4.2, Fig. 4).

Turns each detected failure into a recovery under the configured
strategy.  Every strategy but active replication is a
:class:`~repro.scaling.reconfig.ReconfigPlan` for the shared
reconfiguration engine — operator recovery is "a special case of scale
out" (Algorithm 3) — and the plans differ only in where the
replacement's state comes from:

* ``rsm`` — recovery using state management: restore the most recent
  checkpoint and replay unprocessed tuples.  With
  ``recovery_parallelism == 1`` this is serial recovery: the replacement
  keeps the failed slot's uid and resumes the checkpoint's output clock,
  so downstream duplicate filters drop its re-emissions exactly (§3.2).
  With a higher value the failed operator is *scaled out during
  recovery* (parallel recovery), splitting the replay across partitions.
* ``upstream_backup`` (UB) [8] — no checkpoints: every operator buffers
  a window of output tuples and replays them to a fresh replacement,
  which rebuilds its state by re-processing.
* ``source_replay`` (SR) [29] — only the sources buffer.  They stop
  generating and replay their buffers through the whole pipeline;
  intermediate operators re-derive the failed operator's input.
  Completion is pipeline quiescence.
* ``active_replication`` — promote the failed primary's replica
  (:mod:`repro.fault.active`).

UB and SR rebuild state rather than restoring it, so their recovery time
scales with the buffered window instead of the checkpoint interval — the
comparison in Fig. 11.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import (
    STRATEGY_ACTIVE_REPLICATION,
    STRATEGY_NONE,
    STRATEGY_RSM,
    STRATEGY_SOURCE_REPLAY,
    STRATEGY_UPSTREAM_BACKUP,
)
from repro.scaling.reconfig import (
    KIND_RECOVERY,
    SOURCE_BACKUP,
    SOURCE_FRESH,
    SOURCE_SOURCE_REPLAY,
    ReconfigPlan,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.instance import OperatorInstance
    from repro.runtime.system import StreamProcessingSystem

#: Strategy -> (state source, event-detail label) of its recovery plan.
_PLANS = {
    STRATEGY_RSM: (SOURCE_BACKUP, ""),
    STRATEGY_UPSTREAM_BACKUP: (SOURCE_FRESH, "UB"),
    STRATEGY_SOURCE_REPLAY: (SOURCE_SOURCE_REPLAY, "SR"),
}


class RecoveryCoordinator:
    """Routes failure notifications to the active recovery strategy."""

    def __init__(self, system: "StreamProcessingSystem") -> None:
        self.system = system
        #: Completed recoveries as (completion_time, duration) pairs.
        self.recovery_durations: list[tuple[float, float]] = []
        self._handled: set[int] = set()
        #: Retry attempts so far, per failed instance identity.
        self._attempts: dict[int, int] = {}
        #: Recoveries abandoned after exhausting the retry budget.
        self.giveups = 0

    def on_failure_detected(self, instance: "OperatorInstance") -> None:
        """Handle one detected failure (idempotent per instance)."""
        system = self.system
        current = system.instances.get(instance.uid)
        if current is not instance:
            return  # already replaced by some earlier recovery
        if id(instance) in self._handled:
            return
        self._handled.add(id(instance))
        strategy = system.config.fault.strategy
        if strategy == STRATEGY_NONE:
            return
        if instance.is_source or instance.is_sink:
            system.metrics.mark_event(
                system.sim.now,
                "unrecoverable",
                f"{instance.slot!r}: sources/sinks are assumed reliable",
            )
            return
        failure_time = (
            instance.vm.failed_at
            if instance.vm.failed_at is not None
            else system.sim.now
        )
        # Detection span: crash instant → this handoff, parented on the
        # failure span and registered so the recovery's reconfiguration
        # root span links back to it (the causal chain a trace renders
        # as failure -> detection -> recovery -> phases).
        system.telemetry.record_detection(
            instance.uid, instance.op_name, failure_time
        )
        self._dispatch(instance, failure_time)

    def _dispatch(self, instance: "OperatorInstance", failure_time: float) -> None:
        """Start one recovery attempt under the configured strategy.

        First attempts and retries both come through here, so an aborted
        upstream-backup or source-replay recovery is retried as itself
        and never falls back to a checkpoint restore (there are no
        checkpoints).
        """
        system = self.system
        cfg = system.config.fault
        if cfg.strategy == STRATEGY_ACTIVE_REPLICATION:
            assert system.replication is not None
            system.replication.promote(instance, failure_time, self._record)
            return
        if cfg.strategy == STRATEGY_RSM and cfg.recovery_parallelism > 1:
            assert system.scale_out is not None
            started = system.scale_out.scale_out_slot(
                instance.uid,
                parallelism=cfg.recovery_parallelism,
                reason="parallel recovery",
                failure_time=failure_time,
                on_complete=self._record,
            )
        else:
            source, label = _PLANS[cfg.strategy]
            assert system.reconfig is not None
            started = system.reconfig.submit(
                ReconfigPlan(
                    kind=KIND_RECOVERY,
                    op_name=instance.op_name,
                    old_slots=[instance.slot],
                    state_source=source,
                    preserve_slots=cfg.strategy == STRATEGY_RSM,
                    reason="failure",
                    failure_time=failure_time,
                    on_complete=self._record,
                    label=label,
                )
            )
        if not started and cfg.strategy == STRATEGY_RSM:
            # Backup unavailable right now (e.g. backup VM also failed and
            # a re-checkpoint is in flight): retry with backoff.
            self.schedule_retry(instance, failure_time)

    def schedule_retry(
        self, instance: "OperatorInstance", failure_time: float
    ) -> None:
        """Schedule the next recovery attempt under capped exponential
        backoff with seeded jitter.

        Attempt *n* waits ``min(retry_base * retry_multiplier^(n-1),
        retry_cap)`` seconds, scaled by a uniform ±``retry_jitter``
        factor drawn from the run's seeded RNG (no draw when jitter is
        0, keeping default runs on their historical schedules).  The
        attempt is abandoned — with a ``recovery_giveup`` event — once
        ``max_retries`` attempts were made or ``retry_deadline`` seconds
        passed since the failure; both are off by default.
        """
        system = self.system
        cfg = system.config.fault
        key = id(instance)
        attempt = self._attempts.get(key, 0) + 1
        self._attempts[key] = attempt
        now = system.sim.now
        if (cfg.max_retries is not None and attempt > cfg.max_retries) or (
            cfg.retry_deadline is not None
            and now - failure_time > cfg.retry_deadline
        ):
            self.giveups += 1
            system.telemetry.event(
                "recovery_giveup",
                repr(instance.slot),
                slot=instance.uid,
                attempts=attempt - 1,
                elapsed=now - failure_time,
            )
            return
        delay = min(
            cfg.retry_base * cfg.retry_multiplier ** (attempt - 1),
            cfg.retry_cap,
        )
        if cfg.retry_jitter > 0:
            rng = system.rng.stream("recovery-backoff")
            delay *= 1.0 + cfg.retry_jitter * (2.0 * rng.random() - 1.0)
        system.telemetry.event(
            "recovery_retry",
            repr(instance.slot),
            slot=instance.uid,
            attempt=attempt,
            delay=delay,
        )
        system.sim.schedule(delay, self._retry, instance, failure_time)

    def _retry(self, instance: "OperatorInstance", failure_time: float) -> None:
        if self.system.instances.get(instance.uid) is instance:
            self._dispatch(instance, failure_time)

    def _record(self, duration: float) -> None:
        self.recovery_durations.append((self.system.sim.now, duration))

    @property
    def last_recovery_duration(self) -> float | None:
        if not self.recovery_durations:
            return None
        return self.recovery_durations[-1][1]
