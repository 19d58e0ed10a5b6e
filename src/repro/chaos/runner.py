"""Chaos experiment runner.

One :class:`ChaosRunner` owns a workload configuration (word count by
default, LRB optionally) and runs it three ways:

* **golden** — no faults at all; its sink output is the exactly-once
  reference.  The workload RNG derives from ``config.seed``, which the
  runner keeps *fixed* across every run of a sweep, so one golden run
  serves all chaos seeds and any sink difference is attributable to the
  injected faults alone.
* **run_seed(seed)** — network faults (loss, duplication, re-ordering,
  delay spikes) plus Poisson crash-stop failures of worker VMs, all
  derived from the single chaos ``seed``.  A violating seed reproduces
  from the seed alone.
* **run_phase_kill(phase, target)** — a deterministic schedule: the
  primary VM is killed to trigger a recovery, and a second kill fires
  exactly when the reconfiguration enters ``phase``.

After each chaos run the :class:`InvariantChecker` audits the system and
the sink output is compared window-by-window against the golden run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.chaos.invariants import (
    InvariantChecker,
    Violation,
    compare_windows,
    eligible_windows,
)
from repro.chaos.plan import FaultRule, NetworkFaultPlan, PartitionRule
from repro.chaos.schedule import GrayFailureSchedule, PhaseTriggeredFaults
from repro.config import SystemConfig
from repro.errors import ReproError
from repro.runtime.system import StreamProcessingSystem


@dataclass
class ChaosRunResult:
    """Outcome of one chaos run."""

    seed: int
    violations: list[Violation] = field(default_factory=list)
    failures: int = 0
    stragglers: int = 0
    faults: int = 0
    recoveries: int = 0
    aborts: int = 0
    results_received: int = 0
    #: Phi-detector detections that condemned a live instance.
    false_suspicions: int = 0
    #: Superseded primaries that self-terminated on a fence notice.
    zombies_fenced: int = 0
    #: JSONL trace dumped for this run (violating seeds only).
    trace_path: str | None = None

    @property
    def survived(self) -> bool:
        """Whether the run upheld every invariant."""
        return not self.violations

    def describe(self) -> str:
        """One line per violation, or an OK summary."""
        if self.survived:
            extra = ""
            if self.false_suspicions or self.zombies_fenced:
                extra = (
                    f", {self.false_suspicions} false suspicions, "
                    f"{self.zombies_fenced} zombies fenced"
                )
            return (
                f"seed {self.seed}: OK "
                f"({self.failures} failures, {self.faults} network faults, "
                f"{self.recoveries} recoveries, {self.aborts} aborts{extra})"
            )
        lines = [f"seed {self.seed}: {len(self.violations)} violation(s)"]
        lines += [f"  {v}" for v in self.violations]
        if self.trace_path is not None:
            lines.append(f"  trace: {self.trace_path}")
        return "\n".join(lines)


class ChaosRunner:
    """Sweeps randomized fault schedules over one workload."""

    def __init__(
        self,
        workload: str = "wordcount",
        rate: float = 200.0,
        duration: float = 150.0,
        window: float = 15.0,
        checkpoint_interval: float = 2.0,
        checkpoint_mode: str = "phase",
        settle: float = 25.0,
        workload_seed: int = 0,
        recovery_parallelism: int = 1,
        drop_rate: float = 0.02,
        duplicate_rate: float = 0.01,
        reorder_rate: float = 0.02,
        delay_rate: float = 0.005,
        mtbf: float = 60.0,
        margin: float = 10.0,
        lrb_xways: int = 1,
        lrb_tolerance: float = 0.0,
        trace_dir: str | None = None,
        batching: bool = False,
        columnar: bool = False,
        flow: bool = False,
        migration_chunks: int = 1,
        state_backend: str | None = None,
        max_hot_entries: int = 100_000,
        detector: str = "omniscient",
    ) -> None:
        if workload not in ("wordcount", "lrb"):
            raise ReproError(f"unknown chaos workload: {workload!r}")
        self.workload = workload
        #: When set, any violating run dumps its full causal trace
        #: (spans + event log) as JSONL under this directory, named by
        #: workload and seed so the run reproduces from the seed alone.
        self.trace_dir = trace_dir
        self.rate = rate
        self.duration = duration
        self.window = window
        self.checkpoint_interval = checkpoint_interval
        #: Checkpoint coordination for the whole sweep (golden included):
        #: "phase" (per-instance daemons) or "barrier" (epoch-aligned
        #: cuts with incremental deltas) — see CheckpointConfig.mode.
        self.checkpoint_mode = checkpoint_mode
        #: Quiet tail after the last injected fault: long enough for every
        #: recovery to finish and for each slot to store a fresh,
        #: un-trim-locked checkpoint (the buffers_trimmed oracle needs it).
        self.settle = settle
        self.workload_seed = workload_seed
        self.recovery_parallelism = recovery_parallelism
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate
        self.reorder_rate = reorder_rate
        self.delay_rate = delay_rate
        self.mtbf = mtbf
        self.margin = margin
        self.lrb_xways = lrb_xways
        self.lrb_tolerance = lrb_tolerance
        #: Run the whole sweep (golden included) on the batched data plane.
        #: Columnar blocks and credit flow control both ride batching, so
        #: either flag implies it.
        self.batching = batching or columnar or flow
        #: Ship batches as columnar TupleBlocks (vectorized kernels).
        self.columnar = columnar
        #: Credit-based backpressure, closed-loop: source shedding is
        #: disabled so the golden-equivalence oracle sees every tuple —
        #: backpressure defers output in pending batches instead of
        #: dropping input.
        self.flow = flow
        #: Scale-outs migrate state fluidly in up to this many chunks.
        self.migration_chunks = migration_chunks
        #: State backend kind for the whole sweep (golden included):
        #: None/"memory", "spill" or "external" — see StateBackendConfig.
        self.state_backend = state_backend
        self.max_hot_entries = max_hot_entries
        #: Failure detector for the chaos runs: "omniscient" (instant,
        #: infallible) or "phi" (message heartbeats, can be fooled by
        #: partitions/mutes into false suspicions).  The golden run always
        #: uses the omniscient detector — it sees no faults, and keeping
        #: it heartbeat-free keeps the reference stream canonical.
        self.detector = detector
        self._golden = None

    # ------------------------------------------------------------- building

    def _config(self, detector: str | None = None) -> SystemConfig:
        config = SystemConfig()
        config.seed = self.workload_seed
        config.scaling.enabled = False
        config.checkpoint.interval = self.checkpoint_interval
        config.checkpoint.mode = self.checkpoint_mode
        config.checkpoint.stagger = True
        config.fault.recovery_parallelism = self.recovery_parallelism
        config.fault.detector = detector if detector is not None else self.detector
        # Chaos runs recover often; a deep pool with fast refills keeps VM
        # acquisition from dominating every schedule.
        config.cloud.pool_size = 4
        config.cloud.provisioning_delay = 12.0
        config.batching.enabled = self.batching
        config.batching.columnar = self.columnar
        if self.flow:
            config.flow.enabled = True
            config.flow.shed_at_source = False
        config.migration.max_chunks = self.migration_chunks
        if self.state_backend is not None:
            config.state_backend.kind = self.state_backend
            config.state_backend.max_hot_entries = self.max_hot_entries
        return config

    def _build(self, detector: str | None = None):
        if self.workload == "lrb":
            from repro.workloads.lrb.query import build_lrb_query

            query = build_lrb_query(self.lrb_xways, self.duration)
        else:
            from repro.workloads.wordcount import build_word_count_query

            query = build_word_count_query(
                rate=self.rate,
                window=self.window,
                vocabulary_size=500,
                words_per_sentence=6,
                quantum=0.1,
            )
        system = StreamProcessingSystem(self._config(detector))
        system.deploy(query.graph, generators=query.generators)
        return system, query

    def _fault_plan(self, seed: int) -> NetworkFaultPlan:
        rule = FaultRule(
            drop_rate=self.drop_rate,
            duplicate_rate=self.duplicate_rate,
            reorder_rate=self.reorder_rate,
            delay_rate=self.delay_rate,
            # Keep injected delays well inside the windows' grace period,
            # so delayed tuples still land in open windows.
            retransmit_delay=0.05,
            reorder_hold=0.02,
            delay_spike=0.2,
            window=(0.0, self.duration - self.settle),
        )
        return NetworkFaultPlan([rule], seed=seed)

    # --------------------------------------------------------------- golden

    def golden(self):
        """The failure-free reference run (cached per runner).

        Always runs with the omniscient detector: the reference sees no
        faults, so a detector choice could only perturb it, never inform
        it.
        """
        if self._golden is None:
            system, query = self._build(detector="omniscient")
            system.run(until=self.duration)
            self._golden = (system, query)
        return self._golden

    def _oracle_windows(self) -> list[int]:
        return eligible_windows(
            self.duration, self.window, grace=10.0, margin=self.margin
        )

    def _sink_violations(self, query) -> list[Violation]:
        _golden_system, golden_query = self.golden()
        if self.workload == "lrb":
            expected = golden_query.collector.total()
            actual = query.collector.total()
            slack = self.lrb_tolerance * max(expected, 1.0)
            if abs(expected - actual) > slack:
                return [
                    Violation(
                        "sink_output",
                        f"LRB totals differ: golden={expected} chaos={actual}",
                    )
                ]
            return []
        return compare_windows(
            golden_query.collector, query.collector, self._oracle_windows()
        )

    # ----------------------------------------------------------- chaos runs

    @staticmethod
    def _fault_model_victims(system: StreamProcessingSystem):
        """Worker VMs that may crash without leaving the fault model.

        The paper's guarantee covers one failure at a time per slot: a
        slot survives losing its primary *or* its checkpoint backup, but
        not both at once (§3.3 acknowledges concurrent node failures may
        lose state).  A chaos harness validates the claimed guarantee, so
        the Poisson sampler exempts any VM that currently holds the sole
        surviving copy of some slot's state:

        * a VM storing the backup of a slot whose primary is dead (the
          recovery in flight is reading that backup), and
        * a VM hosting an instance that has not stored a checkpoint yet
          (its state exists nowhere else).

        Everything else — including VMs involved in an ongoing
        reconfiguration — is fair game.
        """
        sole_backup_vms = {
            id(vm)
            for uid, vm in system.backup_locations.items()
            if system.live_instance(uid) is None
        }
        victims = []
        for inst in system.worker_instances():
            if id(inst.vm) in sole_backup_vms:
                continue
            if system.backup_of(inst.uid) is None:
                continue
            victims.append(inst.vm)
        return victims

    def run_seed(self, seed: int) -> ChaosRunResult:
        """One fully randomized chaos run, reproducible from ``seed``."""
        system, query = self._build()
        plan = self._fault_plan(seed)
        system.network.install_fault_plan(plan)
        rng = np.random.default_rng(seed)
        system.injector.poisson_failures(
            lambda: self._fault_model_victims(system),
            mtbf=self.mtbf,
            rng=rng,
            until=self.duration - self.settle,
        )
        system.run(until=self.duration)
        return self._audit(seed, system, query, plan)

    def run_phase_kill(
        self,
        phase: str,
        target: str,
        fail_op: str | None = None,
        fail_at: float = 45.0,
        seed: int = 0,
    ) -> ChaosRunResult:
        """Deterministic mid-reconfiguration kill.

        Kills the ``fail_op`` primary VM at ``fail_at`` to trigger a
        recovery, then kills the ``target``-role VM the moment that
        reconfiguration enters ``phase``.
        """
        if fail_op is None:
            fail_op = "counter" if self.workload == "wordcount" else "toll_calc"
        system, query = self._build()
        schedule = PhaseTriggeredFaults(system)
        schedule.kill_on_phase(phase, target=target, op_name=fail_op)
        system.injector.fail_target_at(
            lambda: system.vm_of(fail_op), fail_at
        )
        system.run(until=self.duration)
        result = self._audit(seed, system, query, plan=None)
        if not schedule.fired:
            result.violations.append(
                Violation(
                    "phase_kill",
                    f"schedule never fired: no reconfiguration of "
                    f"{fail_op!r} entered {phase!r}",
                )
            )
        return result

    def run_scale_out_kill(
        self,
        phase: str,
        target: str,
        op_name: str | None = None,
        scale_at: float = 45.0,
        parallelism: int = 2,
        seed: int = 0,
    ) -> ChaosRunResult:
        """Deterministic mid-scale-out kill.

        Starts a scale-out of ``op_name`` (still alive) at ``scale_at``
        and kills the ``target``-role VM when that reconfiguration enters
        ``phase``.  Unlike :meth:`run_phase_kill` the operator's primary
        survives, so killing the *backup* VM stays inside the fault
        model: the engine re-checkpoints from the live primary.
        """
        if op_name is None:
            op_name = "counter" if self.workload == "wordcount" else "toll_calc"
        system, query = self._build()
        schedule = PhaseTriggeredFaults(system)
        schedule.kill_on_phase(phase, target=target, op_name=op_name)

        def start() -> None:
            slot = system.query_manager.slots_of(op_name)[0]
            system.scale_out.scale_out_slot(slot.uid, parallelism)

        system.sim.schedule_at(scale_at, start)
        system.run(until=self.duration)
        result = self._audit(seed, system, query, plan=None)
        if not schedule.fired:
            result.violations.append(
                Violation(
                    "phase_kill",
                    f"schedule never fired: no scale-out of {op_name!r} "
                    f"entered {phase!r}",
                )
            )
        return result

    def run_chunk_kill(
        self,
        chunk_index: int,
        target: str,
        op_name: str | None = None,
        scale_at: float = 45.0,
        parallelism: int = 2,
        seed: int = 0,
        network_faults: bool = True,
    ) -> ChaosRunResult:
        """Kill a role VM at the commit of one fluid migration chunk.

        Starts a chunked scale-out of ``op_name`` at ``scale_at`` and
        kills the ``target``-role VM the moment chunk ``chunk_index``
        commits — the precise window where part of the key range has
        moved and the rest is still leaving.  ``seed`` additionally
        derives a network fault plan (loss, duplication, re-ordering)
        unless ``network_faults`` is off, so every seed is a distinct
        run while the kill itself stays deterministic.
        """
        if op_name is None:
            op_name = "counter" if self.workload == "wordcount" else "toll_calc"
        system, query = self._build()
        schedule = PhaseTriggeredFaults(system)
        schedule.kill_on_chunk_commit(chunk_index, target=target, op_name=op_name)
        plan = None
        if network_faults:
            plan = self._fault_plan(seed)
            system.network.install_fault_plan(plan)

        def start() -> None:
            slot = system.query_manager.slots_of(op_name)[0]
            system.scale_out.scale_out_slot(slot.uid, parallelism)

        system.sim.schedule_at(scale_at, start)
        system.run(until=self.duration)
        result = self._audit(seed, system, query, plan=plan)
        if not schedule.fired:
            result.violations.append(
                Violation(
                    "chunk_kill",
                    f"schedule never fired: no fluid migration of "
                    f"{op_name!r} committed chunk {chunk_index}",
                )
            )
        return result

    def run_carveout_kill(
        self,
        target: str,
        op_name: str | None = None,
        carve_at: float = 45.0,
        seed: int = 0,
        network_faults: bool = True,
    ) -> ChaosRunResult:
        """Kill a role VM at the commit of a hot-key carve-out chunk.

        At ``carve_at`` picks the operator's heaviest key straight from
        its live state (deterministic: max count, ties broken by key) and
        carves its singleton interval out into a dedicated slot — the
        partial fluid migration behind hot-key elasticity.  The
        ``target``-role VM is killed the moment the carve's chunk
        commits: the hot key's routing has swapped to the new slot, the
        source has just shed the moved range from its frozen backup, and
        parked tuples are still replaying.  ``seed`` additionally derives
        a network fault plan unless ``network_faults`` is off.
        """
        from repro.core.state import KeyInterval
        from repro.core.tuples import stable_hash

        if op_name is None:
            op_name = "counter" if self.workload == "wordcount" else "toll_calc"
        system, query = self._build()
        schedule = PhaseTriggeredFaults(system)
        schedule.kill_on_chunk_commit(0, target=target, op_name=op_name)
        plan = None
        if network_faults:
            plan = self._fault_plan(seed)
            system.network.install_fault_plan(plan)

        def start() -> None:
            slot = system.query_manager.slots_of(op_name)[0]
            instance = system.live_instance(slot.uid)
            if instance is None or not instance.state:
                return
            def weight(value) -> float:
                if isinstance(value, dict):
                    return float(sum(value.values()))
                return float(value) if isinstance(value, (int, float)) else 0.0

            hot = max(
                instance.state.items(),
                key=lambda kv: (weight(kv[1]), str(kv[0])),
            )
            pos = stable_hash(hot[0])
            system.scale_out.carve_out_slot(
                slot.uid, [KeyInterval(pos, pos + 1)], reason="chaos carve"
            )

        system.sim.schedule_at(carve_at, start)
        system.run(until=self.duration)
        result = self._audit(seed, system, query, plan=plan)
        if not schedule.fired:
            result.violations.append(
                Violation(
                    "carveout_kill",
                    f"schedule never fired: no carve-out of {op_name!r} "
                    "committed a chunk",
                )
            )
        return result

    def run_last_resort_kill(
        self,
        fail_op: str | None = None,
        fail_at: float = 45.0,
        seed: int = 0,
        network_faults: bool = False,
    ) -> ChaosRunResult:
        """Kill an operator's primary VM *and* its backup VM back-to-back.

        With both the primary and every backup copy gone, a memory-backend
        run is unrecoverable by design (§3.3 scopes the guarantee to one
        failure at a time).  With the external state backend the last
        flushed cut survives in the external store, so the recovery falls
        back to the restore-of-last-resort path; the run is audited like
        any other chaos run and must additionally have taken that path
        (a ``recovery_external`` event).
        """
        if fail_op is None:
            fail_op = "counter" if self.workload == "wordcount" else "toll_calc"
        system, query = self._build()
        plan = None
        if network_faults:
            plan = self._fault_plan(seed)
            system.network.install_fault_plan(plan)
        slot_uid = system.query_manager.slots_of(fail_op)[0].uid
        system.injector.fail_target_at(lambda: system.vm_of(fail_op), fail_at)
        # The backup VM dies right behind the primary — before detection
        # (1 s) lets the recovery read the backup store.
        system.injector.fail_target_at(
            lambda: system.backup_locations.get(slot_uid), fail_at + 0.05
        )
        system.run(until=self.duration)
        result = self._audit(seed, system, query, plan=plan)
        if not system.metrics.events_of_kind("recovery_external"):
            result.violations.append(
                Violation(
                    "last_resort",
                    f"no external-tier restore happened for {fail_op!r} "
                    "(source and backup VMs were both killed)",
                )
            )
        return result

    def run_epoch_kill(
        self, seed: int, network_faults: bool = True
    ) -> ChaosRunResult:
        """Kill a worker VM mid-epoch under barrier checkpointing.

        Requires ``checkpoint_mode="barrier"``.  The kill lands a few
        (seeded) milliseconds after a barrier injection boundary — while
        barriers are in flight, inputs are aligning, or the epoch cut is
        being serialised — so the in-flight epoch is lost and recovery
        must fall back to the last *complete* epoch's cuts.  ``seed``
        additionally derives a network fault plan (loss, duplication,
        re-ordering) unless ``network_faults`` is off.  The audit is the
        standard exactly-once one: the sink output must match the golden
        run window for window.
        """
        import random as _random

        if self.checkpoint_mode != "barrier":
            raise ReproError(
                "run_epoch_kill requires checkpoint_mode='barrier'"
            )
        system, query = self._build()
        plan = None
        if network_faults:
            plan = self._fault_plan(seed)
            system.network.install_fault_plan(plan)
        rng = _random.Random(seed)
        # Pick a barrier boundary well inside the chaos window, then a
        # small offset landing inside the barrier propagation / cut
        # serialisation that follows it.
        last_k = int((self.duration - self.settle) / self.checkpoint_interval)
        k = rng.randint(2, max(2, last_k - 1))
        fail_at = k * self.checkpoint_interval + rng.uniform(0.002, 0.035)

        def victim():
            victims = self._fault_model_victims(system)
            return rng.choice(victims) if victims else None

        system.injector.fail_target_at(victim, fail_at)
        system.run(until=self.duration)
        result = self._audit(seed, system, query, plan=plan)
        if not system.metrics.events_of_kind("recovery_complete"):
            result.violations.append(
                Violation(
                    "epoch_kill",
                    f"no recovery completed after the mid-epoch kill at "
                    f"{fail_at:.3f}s",
                )
            )
        if system.checkpointer.last_complete_epoch == 0:
            result.violations.append(
                Violation(
                    "epoch_kill",
                    "barrier protocol never completed an epoch",
                )
            )
        return result

    def sweep(self, seeds: list[int]) -> list[ChaosRunResult]:
        """Run every seed; the golden run is shared across the sweep."""
        return [self.run_seed(seed) for seed in seeds]

    # ------------------------------------------------------- partition chaos

    def run_partition_seed(self, seed: int) -> ChaosRunResult:
        """One seeded partition-and-gray-failure run under the phi detector.

        Reproducible from ``seed`` alone, the schedule mixes the three
        ways a healthy instance can look dead:

        * one or two **network partitions**, each severing a worker VM
          from the monitor (sink) VM for a few seconds — its heartbeats
          are dropped while its data/control traffic is held, so the phi
          detector manufactures a false suspicion and the recovery
          installs a successor while the condemned primary keeps
          running (a zombie, later fenced);
        * optionally a **heartbeat mute** ("alive but not heartbeating"):
          the instance processes normally but its emitter goes silent;
        * optionally a **10 %-CPU straggler**, which must *not* trip the
          detector (heartbeats keep flowing).

        Every window closes before the settle period so held traffic is
        released, fences resolve, and the audit sees a quiesced system.
        Runs under ``detector="phi"`` regardless of the runner default.
        """
        import random as _random

        rng = _random.Random(seed)
        system, query = self._build(detector="phi")
        workers = sorted(
            {
                inst.vm.vm_id
                for inst in system.worker_instances()
            }
        )
        sink_vms = frozenset(
            inst.vm.vm_id
            for inst in system.instances.values()
            if inst.is_sink
        )
        worker_ops = sorted(
            {
                inst.op_name
                for inst in system.worker_instances()
            }
        )
        chaos_end = self.duration - self.settle
        partitions = []
        for _ in range(rng.randint(1, 2)):
            victim = rng.choice(workers)
            start = rng.uniform(10.0, max(chaos_end - 8.0, 11.0))
            length = rng.uniform(3.0, 6.0)
            partitions.append(
                PartitionRule(
                    frozenset({victim}),
                    sink_vms,
                    (start, min(start + length, chaos_end)),
                )
            )
        plan = NetworkFaultPlan([], seed=seed, partitions=partitions)
        system.network.install_fault_plan(plan)
        gray = GrayFailureSchedule(system)
        if rng.random() < 0.5:
            gray.mute_heartbeats_at(
                rng.choice(worker_ops),
                time=rng.uniform(10.0, chaos_end - 10.0),
                duration=rng.uniform(2.5, 4.0),
            )
        if rng.random() < 0.5:
            gray.straggle_at(
                rng.choice(worker_ops),
                time=rng.uniform(10.0, chaos_end - 10.0),
                factor=0.1,
                duration=rng.uniform(3.0, 6.0),
            )
        # A sprinkle of real crashes so genuine and false detections
        # coexist (concurrent zombies next to actual recoveries).
        np_rng = np.random.default_rng(seed)
        system.injector.poisson_failures(
            lambda: self._fault_model_victims(system),
            mtbf=self.mtbf * 2,
            rng=np_rng,
            until=chaos_end,
        )
        system.run(until=self.duration)
        return self._audit(seed, system, query, plan)

    # -------------------------------------------------------------- utility

    def _audit(
        self,
        seed: int,
        system: StreamProcessingSystem,
        query,
        plan: NetworkFaultPlan | None,
    ) -> ChaosRunResult:
        violations = InvariantChecker(system).check()
        violations += self._sink_violations(query)
        trace_path: str | None = None
        if violations and self.trace_dir is not None:
            path = (
                Path(self.trace_dir)
                / f"chaos-{self.workload}-seed{seed}.jsonl"
            )
            system.telemetry.dump_jsonl(path)
            trace_path = str(path)
        collector = query.collector
        received = getattr(collector, "received", None)
        if received is None:
            received = int(collector.total())
        detector = system.phi_detector
        return ChaosRunResult(
            seed=seed,
            violations=violations,
            failures=len(system.injector.failures_injected),
            stragglers=len(system.injector.stragglers_injected),
            faults=plan.faults_injected() if plan is not None else 0,
            recoveries=len(system.metrics.events_of_kind("recovery_complete")),
            aborts=len(system.metrics.events_of_kind("recovery_aborted"))
            + len(system.metrics.events_of_kind("scale_out_aborted")),
            results_received=int(received),
            false_suspicions=(
                detector.false_detections if detector is not None else 0
            ),
            zombies_fenced=int(system.counter("zombies_fenced")),
            trace_path=trace_path,
        )
