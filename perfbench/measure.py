"""Untraced and traced runs of one workload, and the metrics they yield.

End-to-end metrics come from untraced sub-runs: simulated quantities from
the first ``sub_runs`` sub-seeds of the workload (so they repeat exactly
for a seed), wall-clock throughput from every sub-run that fits in the
run's time budget.  Per-layer metrics come from one traced sub-run,
checked against an untraced run in a fresh interpreter (determinism and
tracing overhead) and a cProfile run (call counts).
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import math
import os
import pstats
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import oracle
import workloads
from ledger import (
    DISPATCH,
    STATE_POINT_OPS,
    Ledger,
    LedgerSnapshot,
    crosscheck,
    profiled_counts,
)

PROBE = Path(__file__).with_name("probe.py")
#: Fresh-interpreter set-ups per benchmark run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Simulated seconds between busy/backlog samples in the traced run.
SAMPLE_EVERY = 0.05
#: Reconfiguration phases reported per layer (the engine's PHASE_ORDER).
PHASES = ("PLAN", "ACQUIRE_VMS", "CHECKPOINT_PARTITION", "TRANSFER",
          "RESTORE", "COMMIT", "REPLAY_DRAIN")
PERCENTILES = (("p50", 50.0), ("p99", 99.0), ("p999", 99.9))
#: Per-layer metrics about the trace itself, with their units.
TRACE_UNITS = {
    "trace.untraced_tuples_per_wall_s": "tuples/s",
    "trace.traced_tuples_per_wall_s": "tuples/s",
    "trace.overhead_frac": "ratio",
    "trace.crosscheck_functions": "count",
    "trace.crosscheck_mismatches": "count",
}
CHILD_TIMEOUT_S = 120


# ------------------------------------------------------------ one sub-run


def run_timed(run: workloads.SubRun) -> float:
    """Run the sub-run to its duration; wall seconds inside ``system.run``."""
    start = time.perf_counter()
    run.system.run(until=run.duration)
    return time.perf_counter() - start


def worker_vm_seconds(system: Any, until: float) -> float:
    """Integral of the ``vms:workers`` series over ``[first sample, until]``."""
    times, values = system.metrics.timeseries("vms:workers").as_arrays()
    total = 0.0
    for i, value in enumerate(values):
        end = times[i + 1] if i + 1 < len(times) else until
        total += float(value) * (float(end) - float(times[i]))
    return total


def phase_seconds(system: Any, recovery: bool) -> dict[str, float]:
    """Simulated seconds per reconfiguration phase, summed over every
    recovery (``recovery=True``) or every other reconfiguration."""
    totals = dict.fromkeys(PHASES, 0.0)
    for timeline in system.metrics.timelines():
        if (timeline.kind == "recovery") != recovery:
            continue
        for span in timeline.spans:
            if span.phase in totals and span.duration is not None:
                totals[span.phase] += span.duration
    return totals


def duplicate_ratio(system: Any) -> float:
    """Duplicate weight dropped at admission ÷ weight that reached a
    non-source operator (processed + dropped): work wasted on replays."""
    dropped = processed = 0.0
    for name in system.query_manager.query.operators:
        dropped += system.counter(f"duplicates:{name}")
        if name != "source":
            processed += system.metrics.rate(f"processed:{name}").total()
    return dropped / (processed + dropped) if processed + dropped else 0.0


def fingerprint(run: workloads.SubRun) -> dict[str, Any]:
    """Simulated outcomes that must repeat exactly for one seed."""
    system = run.system
    network = system.network
    latency = system.metrics.latencies["latency:counter"]
    results = sorted(run.query.collector.results.items())
    return {
        "source_weight": run.source_weight,
        "messages": network.messages_sent,
        "bytes": network.bytes_sent,
        "latency_samples": len(latency),
        "latency_weight": latency.total_weight,
        **{name: latency.percentile(q) for name, q in PERCENTILES},
        "results": hashlib.sha256(repr(results).encode()).hexdigest(),
        "recoveries": [d for _t, d in system.recovery.recovery_durations],
        "scale_outs": len(system.metrics.events_of_kind("scale_out")),
        "worker_vm_s": worker_vm_seconds(system, run.duration),
        "duplicate_ratio": duplicate_ratio(system),
    }


@dataclass
class SubRunResult:
    seed: int
    wall_s: float
    report: oracle.OracleReport
    fingerprint: dict[str, Any]

    @property
    def tuples_per_wall_s(self) -> float:
        return self.fingerprint["source_weight"] / self.wall_s


def measure_sub_run(name: str, seed: int) -> SubRunResult:
    run = workloads.build(name, seed)
    wall = run_timed(run)
    result = summarize(run, wall)
    del run
    gc.collect()
    return result


def summarize(run: workloads.SubRun, wall: float) -> SubRunResult:
    return SubRunResult(run.seed, wall, oracle.check_sub_run(run), fingerprint(run))


# ------------------------------------------------------- child processes


def _child(args: list[str], env: dict[str, str] | None = None) -> dict[str, Any]:
    """Run ``probe.py`` in a fresh interpreter; its last stdout line is JSON."""
    root = Path(__file__).resolve().parent.parent
    completed = subprocess.run(
        [sys.executable, str(PROBE), *args],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"probe {args} failed ({completed.returncode}):\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def setup_seconds(name: str, seed: int) -> list[float]:
    """Set-up time of ``SETUP_PROBES`` fresh interpreters: first
    ``import repro`` through build, deploy and padding."""
    return [
        _child(["setup", name, str(seed)])["setup_s"] for _ in range(SETUP_PROBES)
    ]


def untraced_in_fresh_interpreter(name: str, seed: int) -> dict[str, Any]:
    """One untraced sub-run in a child with a different string-hash seed,
    so a dependence on set iteration order shows up as a mismatch."""
    env = dict(os.environ)
    current = env.get("PYTHONHASHSEED")
    env["PYTHONHASHSEED"] = str(int(current) + 1) if current and current.isdigit() else "1"
    return _child(["run", name, str(seed)], env=env)


# ------------------------------------------------------------ end to end


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Report:
    """What one benchmark run prints: metrics (value, unit), oracle
    totals, readable notes and any failed self-check."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    notes: list[str]
    problems: list[str] = field(default_factory=list)


def measure_end_to_end(name: str, seed: int, seconds: float) -> Report:
    """The untraced benchmark run of one workload."""
    import repro  # noqa: F401  (compile and cache before timing set-up)

    spec = workloads.workload(name)
    setups = setup_seconds(name, workloads.sub_seed(seed, 0))
    results: list[SubRunResult] = []
    started = time.perf_counter()
    last = 0.0
    while len(results) < spec["sub_runs"] or (
        time.perf_counter() - started + last <= seconds
    ):
        before = time.perf_counter()
        results.append(measure_sub_run(name, workloads.sub_seed(seed, len(results))))
        last = time.perf_counter() - before
    simulated = results[: spec["sub_runs"]]
    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (statistics.median(setups), "s"),
        "sim_tuples_per_wall_s": (
            statistics.median(r.tuples_per_wall_s for r in results), "tuples/s"
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    for label, _q in PERCENTILES:
        value = statistics.median(r.fingerprint[label] for r in simulated)
        metrics[f"tuple_latency_{label}_ms"] = (value * 1e3, "sim_ms")
    samples = [r.fingerprint["latency_samples"] for r in simulated]
    notes = [
        f"setup_s: median of {len(setups)} fresh interpreters "
        f"{[round(s, 4) for s in setups]}",
        f"sim_tuples_per_wall_s: median of {len(results)} sub-runs, "
        f"source weight {[r.fingerprint['source_weight'] for r in results]}, "
        f"wall s {[round(r.wall_s, 3) for r in results]}",
        f"latency percentiles: median over {len(simulated)} sub-runs of "
        f"{samples} weighted samples each (p99.9 has >= {min(samples) // 1000} "
        "beyond it)",
    ]
    for key, unit in (("recoveries", "sim_s"), ("worker_vm_s", "VM.s")):
        notes.append(
            f"{key} ({unit}) per simulated sub-run: "
            f"{[r.fingerprint[key] for r in simulated]}"
        )
    attempted = failed = 0
    for r in results:
        attempted += r.report.checked
        failed += r.report.failed
        notes.append(
            f"oracle seed {r.seed}: windows 0..{r.report.windows - 1}, "
            f"{r.report.checked} results, {r.report.missing} missing, "
            f"{r.report.wrong} wrong"
        )
    ratio = failed / attempted if attempted else 1.0
    notes.append(f"failed_result_ratio: {ratio} ({failed}/{attempted})")
    return Report(metrics, attempted, failed, notes)


# ---------------------------------------------------------------- traced


class VmSampler:
    """Busy fraction and queued work of the splitter and counter VMs,
    sampled every ``SAMPLE_EVERY`` simulated seconds."""

    OPS = ("splitter", "counter")

    def __init__(self, system: Any) -> None:
        self.system = system
        self._last: dict[int, tuple[float, float]] = {}
        self.busy = dict.fromkeys(self.OPS, 0.0)
        self.hosted = dict.fromkeys(self.OPS, 0.0)
        self.counter_backlog: list[float] = []

    def __call__(self, now: float) -> None:
        for op in self.OPS:
            for instance in self.system.instances_of(op):
                vm = instance.vm
                if not vm.alive:
                    continue
                busy = vm.busy_seconds_total()
                previous = self._last.get(vm.vm_id)
                if previous is not None:
                    self.busy[op] += busy - previous[0]
                    self.hosted[op] += now - previous[1]
                self._last[vm.vm_id] = (busy, now)
                if op == "counter":
                    self.counter_backlog.append(vm.queued_work_seconds())

    def busy_frac(self, op: str) -> float:
        return self.busy[op] / self.hosted[op] if self.hosted[op] else 0.0

    def backlog_p99(self) -> float:
        ordered = sorted(self.counter_backlog)
        return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)] if ordered else 0.0


def traced_run(
    name: str, seed: int, ledger: Ledger, duration: float | None = None
) -> tuple[workloads.SubRun, LedgerSnapshot, VmSampler, float]:
    """One sub-run (optionally cut to ``duration`` simulated seconds)
    under the ledger; every patch is undone on return."""
    ledger.install()
    try:
        run = workloads.build(name, seed)
        if duration is not None:
            run.duration = duration
        sampler = VmSampler(run.system)
        ledger.sample_every(run.system.sim, SAMPLE_EVERY, sampler)
        ledger.reset()
        wall = run_timed(run)
        snapshot = ledger.snapshot(wall)
    finally:
        ledger.uninstall()
    return run, snapshot, sampler, wall


def profiled_run(run: workloads.SubRun) -> dict[str, int]:
    """Run the sub-run under cProfile (no wrappers); the ``ncalls`` of
    every function the ledger wraps, by ledger name."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        run.system.run(until=run.duration)
    finally:
        profile.disable()
    return profiled_counts(pstats.Stats(profile).stats)


def measure_traced(name: str, seed: int) -> Report:
    """The traced benchmark run of one workload."""
    import repro  # noqa: F401

    sub_seed = workloads.sub_seed(seed, 0)
    problems: list[str] = []
    baseline = untraced_in_fresh_interpreter(name, sub_seed)

    run, snap, sampler, wall = traced_run(name, sub_seed, Ledger())
    traced = summarize(run, wall)
    metrics = per_layer_metrics(run, snap, sampler)
    del run
    gc.collect()

    profiled = _child(["profile", name, str(sub_seed)])
    mismatches = crosscheck(snap, profiled["ncalls"])

    fingerprints = {
        "untraced (fresh interpreter)": baseline["fingerprint"],
        "traced": traced.fingerprint,
        "profiled (fresh interpreter)": profiled["fingerprint"],
    }
    reference = json.dumps(baseline["fingerprint"], sort_keys=True)
    for label, fp in fingerprints.items():
        if json.dumps(fp, sort_keys=True) != reference:
            problems.append(
                f"NONDETERMINISM: seed {sub_seed} {label} run differs from the "
                f"untraced run: {fp} vs {baseline['fingerprint']}"
            )
    for function, counted, profiled_calls in mismatches:
        problems.append(
            f"LEDGER: {function} traced {counted} calls, cProfile {profiled_calls}"
        )
    closure = snap.closure_error_s()
    if closure > 1e-6 * max(1.0, snap.wall_s):
        problems.append(f"LEDGER: layer self times miss the wall by {closure} s")

    untraced_tps = baseline["fingerprint"]["source_weight"] / baseline["wall_s"]
    traced_tps = traced.tuples_per_wall_s
    compared = len(snap.targets) - 1  # all but the dispatch span
    values = (untraced_tps, traced_tps, 1.0 - traced_tps / untraced_tps,
              float(compared), float(len(mismatches)))
    for (metric, unit), value in zip(TRACE_UNITS.items(), values):
        metrics[metric] = (value, unit)
    # Every counter tuple records one latency sample of its weight.
    counter_weight = traced.fingerprint["latency_weight"]
    notes = [
        f"traced sub-run seed {sub_seed}: {snap.wall_s:.3f} s traced wall, "
        f"{baseline['wall_s']:.3f} s untraced (fresh interpreter); "
        f"ledger closes to {closure:.3e} s",
        f"cross-check: {compared} wrapped functions, {len(mismatches)} "
        "differ from cProfile ncalls",
        f"counter tuples {counter_weight:.0f}; stable_hash calls per counter tuple "
        f"{snap.count('repro.core.tuples:stable_hash') / counter_weight:.4f}",
    ]
    attempted = traced.report.checked + baseline["checked"] + profiled["checked"]
    failed = traced.report.failed + baseline["failed"] + profiled["failed"]
    return Report(metrics, attempted, failed, notes, problems)


def per_layer_metrics(
    run: workloads.SubRun, snap: LedgerSnapshot, sampler: VmSampler
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced sub-run; "per tuple" is per
    unit of source tuple weight."""
    system = run.system
    per_tuple = 1.0 / run.source_weight
    us = 1e6 * per_tuple
    layer_s = snap.layer_self_s()
    events = snap.calls[DISPATCH]
    cuts = snap.count("repro.runtime.instance:OperatorInstance._build_checkpoint")
    blocks = snap.count("repro.runtime.instance:OperatorInstance._process_block")
    kernels = [
        "repro.workloads.wordcount:WordSplitter.process_block",
        "repro.core.operators:WindowedKeyedCounter.process_block",
        "repro.runtime.sink:SinkOperator.process_block",
    ]
    kernel_calls = sum(snap.count(k) for k in kernels)
    kernel_handled = sum(snap.returned(k) for k in kernels)
    replay = [
        "repro.runtime.instance:OperatorInstance.replay_buffer_to",
        "repro.runtime.instance:OperatorInstance.replay_all_buffers",
    ]
    point_ops = sum(
        snap.entered(f"repro.core.state:ProcessingState.{op}") for op in STATE_POINT_OPS
    )
    bulk_ops = sum(
        snap.count(f"repro.core.state:ProcessingState.{op}")
        for op in ("bulk_apply", "bulk_merge_buckets", "bulk_bucket_add")
    )
    engine = system.reconfig
    m: dict[str, tuple[float, str]] = {
        "sim.events_per_tuple": (events * per_tuple, "count/tuple"),
        "sim.heap_compares_per_event": (
            snap.count("repro.sim.events:Event.__lt__") / events, "count/event"),
        "sim.self_us_per_tuple": (layer_s["sim"] * us, "us/tuple"),
        "net.messages_per_tuple": (
            snap.count("repro.sim.network:Network.send") * per_tuple, "count/tuple"),
        "net.bytes_per_tuple": (sum(snap.bytes_by_kind.values()) * per_tuple, "B/tuple"),
        "net.send_self_us_per_tuple": (
            snap.self_time("repro.sim.network:Network.send") * us, "us/tuple"),
        "net.self_us_per_tuple": (layer_s["net"] * us, "us/tuple"),
        "vm.work_items_per_tuple": (
            snap.count("repro.sim.vm:VirtualMachine.submit") * per_tuple, "count/tuple"),
        "vm.busy_frac.splitter": (sampler.busy_frac("splitter"), "ratio"),
        "vm.busy_frac.counter": (sampler.busy_frac("counter"), "ratio"),
        "vm.backlog_s_p99.counter": (sampler.backlog_p99(), "sim_s"),
        "vm.self_us_per_tuple": (layer_s["vm"] * us, "us/tuple"),
        "source.self_us_per_tuple": (layer_s["source"] * us, "us/tuple"),
        "instance.receive_calls_per_tuple": (
            snap.layer_calls("instance.receive", entries_only=True) * per_tuple,
            "count/tuple"),
        "instance.receive_self_us_per_tuple": (layer_s["instance.receive"] * us, "us/tuple"),
        "instance.process_self_us_per_tuple": (layer_s["instance.process"] * us, "us/tuple"),
        "instance.emit_self_us_per_tuple": (layer_s["instance.emit"] * us, "us/tuple"),
        "instance.control_self_us_per_tuple": (layer_s["instance.control"] * us, "us/tuple"),
        "instance.row_objects_per_tuple": (
            snap.count("repro.core.tuples:Tuple.__init__") * per_tuple, "count/tuple"),
        "instance.dup_ratio": (duplicate_ratio(system), "ratio"),
        "routing.hash_calls_per_tuple": (
            snap.count("repro.core.tuples:stable_hash") * per_tuple, "count/tuple"),
        "routing.self_us_per_tuple": (layer_s["routing"] * us, "us/tuple"),
        "operator.self_us_per_tuple.splitter": (layer_s["operator.splitter"] * us, "us/tuple"),
        "operator.self_us_per_tuple.counter": (layer_s["operator.counter"] * us, "us/tuple"),
        "operator.self_us_per_tuple.sink": (layer_s["operator.sink"] * us, "us/tuple"),
        "operator.block_fallback_ratio": (
            (kernel_calls - kernel_handled) / kernel_calls if kernel_calls else 0.0, "ratio"),
        "state.point_ops_per_tuple": (point_ops * per_tuple, "count/tuple"),
        "state.bulk_ops_per_block": (bulk_ops / blocks if blocks else 0.0, "count/block"),
        "state.self_us_per_tuple": (layer_s["state"] * us, "us/tuple"),
        "state.snapshot_ms_total": (
            snap.inclusive_s("repro.core.state:ProcessingState.snapshot") * 1e3, "ms"),
        "buffer.self_us_per_tuple": (layer_s["buffer"] * us, "us/tuple"),
        "checkpoint.cuts": (float(cuts), "count"),
        "checkpoint.bytes_per_cut": (snap.backup_bytes / cuts if cuts else 0.0, "B"),
        "checkpoint.self_ms_per_cut": (
            layer_s["checkpoint"] * 1e3 / cuts if cuts else 0.0, "ms"),
        "migration.bytes": (snap.bytes_by_kind.get("migration", 0.0), "B"),
        "migration.self_ms": (layer_s["migration"] * 1e3, "ms"),
        "scaling.scale_outs": (
            float(len(system.metrics.events_of_kind("scale_out"))), "count"),
        "scaling.abort_ratio": (
            engine.operations_aborted / engine.operations_started
            if engine.operations_started else 0.0, "ratio"),
        "scaling.self_ms": (layer_s["scaling"] * 1e3, "ms"),
        "scaling.worker_vm_s": (worker_vm_seconds(system, run.duration), "VM.s"),
    }
    for phase, seconds in phase_seconds(system, recovery=False).items():
        m[f"scaling.phase_s.{phase}"] = (seconds, "sim_s")
    m["recovery.recovery_s"] = (
        float(sum(d for _t, d in system.recovery.recovery_durations)), "sim_s")
    for phase, seconds in phase_seconds(system, recovery=True).items():
        m[f"recovery.phase_s.{phase}"] = (seconds, "sim_s")
    m["recovery.replayed_tuples"] = (float(sum(snap.returned(r) for r in replay)), "count")
    m["recovery.self_ms"] = (layer_s["recovery"] * 1e3, "ms")
    m["metrics.record_calls_per_tuple"] = (
        snap.layer_calls("metrics", entries_only=True) * per_tuple, "count/tuple")
    m["metrics.self_us_per_tuple"] = (layer_s["metrics"] * us, "us/tuple")
    m["obs.self_us_per_tuple"] = (layer_s["obs"] * us, "us/tuple")
    m["unattributed.self_us_per_tuple"] = (layer_s["unattributed"] * us, "us/tuple")
    return m
