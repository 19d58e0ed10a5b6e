"""Failure detection.

Three detection paths, from most to least abstract:

* The default path models detection latency directly: when a VM
  crashes, recovery is notified ``detection_delay`` seconds later (a
  heartbeat timeout collapsed to a constant).
* :class:`HeartbeatMonitor` polls liveness every heartbeat period and
  declares failure after a number of missed beats, matching how the
  paper's system treats an unresponsive operator ("scales out an
  operator when it has become unresponsive", §4.2).
* :class:`PhiFailureDetector` (``fault.detector = "phi"``) drops the
  omniscient liveness oracle entirely: every worker instance sends
  real heartbeat *messages* through the simulated network — subject to
  latency, loss and partitions — to a monitor, which accrues suspicion
  per slot with a :class:`~repro.fault.phi.PhiEstimator`.  Suspicion
  crosses three thresholds (``phi_suspect`` → ``phi_confirm`` →
  ``phi_dead``); only the last dispatches recovery.  Because the
  detector can only observe messages, a network partition is
  indistinguishable from a crash — false detections are *expected*,
  and epoch fencing (see :mod:`repro.runtime.system`) is what keeps
  the falsely-replaced zombie from corrupting the successor's output.

Recovery dispatch is idempotent, so the paths may run together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.fault.phi import PhiEstimator
from repro.sim.network import KIND_HEARTBEAT
from repro.sim.simulator import PeriodicTask
from repro.sim.vm import VirtualMachine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.instance import OperatorInstance
    from repro.runtime.system import StreamProcessingSystem


class HeartbeatMonitor:
    """Polls instance liveness and reports missing heartbeats."""

    def __init__(
        self,
        system: "StreamProcessingSystem",
        period: float = 0.5,
        missed_beats: int = 2,
    ) -> None:
        self.system = system
        self.period = period
        self.missed_beats = missed_beats
        self._missed: dict[int, int] = {}
        self._reported: set[int] = set()
        self._task: PeriodicTask | None = None
        self.detections = 0

    def start(self) -> None:
        """Begin periodic liveness polling."""
        if self._task is None:
            self._task = self.system.sim.every(self.period, self._tick)

    def stop(self) -> None:
        """Stop polling and forget accrued miss counts.

        A stopped monitor must come back with a clean slate: carrying
        ``_missed``/``_reported`` across a stop/start pair would let a
        restarted monitor instantly re-report a slot it suspected in a
        previous life (or skip beats toward a fresh instance reusing
        the uid).
        """
        if self._task is not None:
            self._task.stop()
            self._task = None
        self._missed.clear()
        self._reported.clear()

    def _tick(self) -> None:
        system = self.system
        # Prune bookkeeping for slots that no longer exist (replaced by a
        # scale out or a fresh-slot recovery): without this, stale
        # ``_missed``/``_reported`` entries accumulate across every
        # reconfiguration of a long run.
        known = set(system.instances)
        for uid in list(self._missed):
            if uid not in known:
                del self._missed[uid]
        self._reported &= known
        for uid, instance in list(system.instances.items()):
            if instance.is_source or instance.is_sink:
                continue
            if instance.vm.alive:
                self._missed[uid] = 0
                self._reported.discard(uid)
                continue
            if uid in self._reported:
                continue
            missed = self._missed.get(uid, 0) + 1
            self._missed[uid] = missed
            if missed >= self.missed_beats:
                self._reported.add(uid)
                self.detections += 1
                system.telemetry.event(
                    "heartbeat_detection",
                    repr(instance.slot),
                    slot=uid,
                    missed_beats=missed,
                    period=self.period,
                )
                if system.recovery is not None:
                    system.recovery.on_failure_detected(instance)


#: Suspicion lifecycle states, in escalation order.
STATE_ALIVE = "alive"
STATE_SUSPECT = "suspect"
STATE_CONFIRMED = "confirmed"
STATE_DEAD = "dead"


@dataclass
class _Watch:
    """Per-slot monitoring record: one instance, one heartbeat stream."""

    instance: "OperatorInstance"
    estimator: PhiEstimator
    state: str = STATE_ALIVE
    emit_task: PeriodicTask | None = field(default=None, repr=False)


class PhiFailureDetector:
    """Message-based phi-accrual failure detection for worker slots.

    Each watched instance runs a periodic heartbeat task that sends a
    small ``kind="heartbeat"`` message from its own VM to the monitor
    VM (the sink's — sinks are assumed reliable, §2.2).  The messages
    ride the simulated network, so chaos plans and partitions perturb
    exactly what a real detector would see.  A periodic check task
    evaluates phi per slot and walks the suspect → confirmed → dead
    lifecycle; only ``dead`` dispatches recovery.

    Heartbeats carry the sender's fencing epoch.  A heartbeat from a
    superseded epoch — a zombie that was falsely declared dead and
    replaced — is never fed to the estimator; instead the monitor sends
    a fence notice back so the zombie learns of its replacement and
    self-terminates.

    ``mute`` models a gray failure: the instance keeps processing but
    its heartbeat task stops producing for a window (a wedged reporter
    thread), which is exactly the failure mode a liveness-polling
    detector cannot represent.
    """

    def __init__(self, system: "StreamProcessingSystem") -> None:
        self.system = system
        cfg = system.config.fault
        self.heartbeat_interval = cfg.heartbeat_interval
        self.heartbeat_bytes = cfg.heartbeat_bytes
        self.phi_suspect = cfg.phi_suspect
        self.phi_confirm = cfg.phi_confirm
        self.phi_dead = cfg.phi_dead
        self.check_interval = cfg.phi_check_interval
        self._window = cfg.phi_window
        self._min_stddev = cfg.phi_min_stddev
        self._watches: dict[int, _Watch] = {}
        self._mute_until: dict[int, float] = {}
        self._check_task: PeriodicTask | None = None
        self.detections = 0
        #: Detections whose target was in fact alive (asynchrony, loss,
        #: partitions, muted reporters) — the zombies fencing must handle.
        self.false_detections = 0
        self.suspicions = 0
        self.suspicions_cleared = 0
        self.heartbeats_sent = 0
        self.heartbeats_received = 0
        self.heartbeats_muted = 0
        #: Heartbeats carrying a superseded epoch (answered with a fence
        #: notice instead of being fed to the estimator).
        self.zombie_heartbeats = 0

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Start the periodic phi check and watch all current workers."""
        if self._check_task is None:
            self._check_task = self.system.sim.every(
                self.check_interval, self._check
            )
        for instance in list(self.system.instances.values()):
            self.watch(instance)

    def stop(self) -> None:
        """Stop checking and every heartbeat task; forget all watches."""
        if self._check_task is not None:
            self._check_task.stop()
            self._check_task = None
        for watch in self._watches.values():
            self._stop_emit(watch)
        self._watches.clear()
        self._mute_until.clear()

    def watch(self, instance: "OperatorInstance") -> None:
        """Begin monitoring one worker instance (idempotent).

        Sources and sinks are assumed reliable (§2.2) and replicas are
        shadowed by the replication manager, so none of them heartbeat.
        A replacement instance reusing its predecessor's uid gets a
        fresh estimator — the predecessor's inter-arrival history says
        nothing about the new VM.
        """
        if instance.is_source or instance.is_sink or instance.is_replica:
            return
        existing = self._watches.get(instance.uid)
        if existing is not None:
            if existing.instance is instance:
                return
            self._stop_emit(existing)
        estimator = PhiEstimator(
            window=self._window,
            min_stddev=self._min_stddev,
            bootstrap_interval=self.heartbeat_interval,
        )
        # Silence accrues from the moment monitoring starts: a watched
        # instance that never sends a single heartbeat must still be
        # detected.
        estimator.heartbeat(self.system.sim.now)
        watch = _Watch(instance=instance, estimator=estimator)
        self._watches[instance.uid] = watch
        watch.emit_task = self.system.sim.every(
            self.heartbeat_interval, self._emit, watch
        )

    def mute(self, uid: int, duration: float) -> None:
        """Gray failure: suppress a slot's heartbeats for ``duration``
        seconds while it keeps processing normally."""
        self._mute_until[uid] = self.system.sim.now + duration

    def state_of(self, uid: int) -> str | None:
        """The suspicion state of a watched slot (None if unwatched)."""
        watch = self._watches.get(uid)
        return watch.state if watch is not None else None

    # ----------------------------------------------------------- heartbeat

    def _monitor_vm(self) -> VirtualMachine | None:
        """Where heartbeats are delivered: the first live sink VM.

        Sinks are assumed reliable, making them the natural monitor
        host; routing heartbeats over real sink-bound network edges is
        what lets partitions between workers and the sink manufacture
        false suspicions.
        """
        for instance in self.system.instances.values():
            if instance.is_sink and instance.vm.alive:
                return instance.vm
        for instance in self.system.instances.values():
            if instance.is_source and instance.vm.alive:
                return instance.vm
        return None

    def _emit(self, watch: _Watch) -> None:
        instance = watch.instance
        if (
            self._watches.get(instance.uid) is not watch
            or not instance.alive
            or not instance.vm.alive
        ):
            self._stop_emit(watch)
            return
        if self._mute_until.get(instance.uid, 0.0) > self.system.sim.now:
            self.heartbeats_muted += 1
            return
        target = self._monitor_vm()
        if target is None:
            return
        self.heartbeats_sent += 1
        self.system.network.send(
            instance.vm,
            target,
            self.heartbeat_bytes,
            self._on_heartbeat,
            watch,
            instance.epoch,
            kind=KIND_HEARTBEAT,
        )

    def _on_heartbeat(self, watch: _Watch, epoch: int) -> None:
        instance = watch.instance
        system = self.system
        if (
            epoch < system.epoch_of(instance.uid)
            or system.instances.get(instance.uid) is not instance
        ):
            # A zombie's heartbeat: its slot was re-epoched by a recovery
            # install.  Never feed it to the (successor's) estimator;
            # tell the sender it has been superseded instead.
            self.zombie_heartbeats += 1
            system.notify_fenced(instance)
            return
        self.heartbeats_received += 1
        watch.estimator.heartbeat(system.sim.now)

    def _stop_emit(self, watch: _Watch) -> None:
        if watch.emit_task is not None and not watch.emit_task.stopped:
            watch.emit_task.stop()
        watch.emit_task = None

    # --------------------------------------------------------------- check

    def _check(self) -> None:
        system = self.system
        now = system.sim.now
        for uid, watch in list(self._watches.items()):
            instance = watch.instance
            if system.instances.get(uid) is not instance:
                # Replaced (recovery or scale out): the successor was
                # (or will be) watched with a fresh estimator.
                self._stop_emit(watch)
                if self._watches.get(uid) is watch:
                    del self._watches[uid]
                continue
            if watch.state == STATE_DEAD:
                continue  # recovery dispatched; wait for the replacement
            phi = watch.estimator.phi(now)
            system.telemetry.suspicion(instance.op_name, uid, phi, watch.state)
            if phi >= self.phi_dead:
                watch.state = STATE_DEAD
                self.detections += 1
                false_positive = instance.alive and instance.vm.alive
                if false_positive:
                    self.false_detections += 1
                system.telemetry.event(
                    "phi_detection",
                    repr(instance.slot),
                    slot=uid,
                    phi=phi,
                    false_positive=false_positive,
                )
                if system.recovery is not None:
                    system.recovery.on_failure_detected(instance)
            elif phi >= self.phi_confirm:
                if watch.state in (STATE_ALIVE, STATE_SUSPECT):
                    if watch.state == STATE_ALIVE:
                        self.suspicions += 1
                    watch.state = STATE_CONFIRMED
                    system.telemetry.event(
                        "suspicion_confirmed",
                        repr(instance.slot),
                        slot=uid,
                        phi=phi,
                    )
            elif phi >= self.phi_suspect:
                if watch.state == STATE_ALIVE:
                    watch.state = STATE_SUSPECT
                    self.suspicions += 1
                    system.telemetry.event(
                        "suspicion", repr(instance.slot), slot=uid, phi=phi
                    )
            elif watch.state in (STATE_SUSPECT, STATE_CONFIRMED):
                watch.state = STATE_ALIVE
                self.suspicions_cleared += 1
                system.telemetry.event(
                    "suspicion_cleared", repr(instance.slot), slot=uid, phi=phi
                )
