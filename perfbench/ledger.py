"""Per-layer ledger for a traced run: spans and counts from outside the program.

:class:`Ledger` replaces the entry points of each layer (class attributes
and module globals, listed in :data:`TARGETS`) with wrappers that count
calls and record a span per call.  A layer's *self* time is the time
inside its spans minus the time inside nested spans of any layer, so the
self times of all layers plus the time inside no wrapped span add up to
the traced wall time exactly.

Every simulator event callback runs inside an ``unattributed`` span, so
work done by code no layer claims (closures, lambdas, unlisted helpers)
is reported as such instead of inflating the kernel's own self time.
Where the program fuses layers (a closure that inlines another layer's
work) the time lands in the span that called the closure.

:meth:`Ledger.uninstall` puts every replaced attribute back; the traced
run always uninstalls in a ``finally``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

#: Wrap every plain function defined in the class body (not inherited),
#: except dunders, properties and generator functions.
ALL = "*"

#: ProcessingState accessors that touch one key (``state.point_ops``).
STATE_POINT_OPS = ("__getitem__", "__setitem__", "__contains__", "get",
                   "setdefault", "pop", "raw_get", "adopt")

# (layer, module, class or None for module functions, names or ALL).
# Earlier rows win: a function listed explicitly is not re-claimed by a
# later ALL row for the same class.
TARGETS: list[tuple[str, str, str | None, Any]] = [
    ("sim", "repro.sim.simulator", "Simulator", ALL),
    ("sim", "repro.sim.simulator", "PeriodicTask", ALL),
    ("sim", "repro.sim.events", "EventQueue", ALL),
    ("sim", "repro.sim.events", "Event", ["cancel", "_mark_fired"]),
    ("net", "repro.sim.network", "Network", ALL),
    ("vm", "repro.sim.vm", "VirtualMachine", ALL),
    ("source", "repro.workloads.synthetic", "RateDrivenGenerator", ALL),
    ("source", "repro.workloads.text", "SentenceGenerator", ["make_tuples"]),
    ("source", "repro.runtime.instance", "OperatorInstance",
     ["inject", "_process_injection"]),
    ("instance.receive", "repro.runtime.instance", "OperatorInstance",
     ["receive", "receive_stamped", "receive_batch", "receive_batch_stamped",
      "receive_block", "receive_block_stamped", "_note_epoch",
      "_receive_fenced", "_reject_fenced", "_barrier_park"]),
    ("instance.process", "repro.runtime.instance", "OperatorInstance",
     ["_process", "_process_batch", "_process_block", "_process_one",
      "_queue_timer", "_run_timer"]),
    ("instance.emit", "repro.runtime.instance", "OperatorInstance",
     ["_emit_from_ctx", "_block_emit", "_emit", "_dispatch", "_send",
      "_batch_add", "_linger_flush", "flush_batches", "_flush_batch",
      "_ship", "_discard_batches", "_send_batch", "_send_block"]),
    ("instance.emit", "repro.core.operator", "OperatorContext", ["emit"]),
    ("checkpoint", "repro.runtime.instance", "OperatorInstance",
     ["start_checkpointing", "stop_checkpointing", "take_checkpoint",
      "_finish_checkpoint", "_build_checkpoint", "force_full_checkpoint",
      "next_checkpoint_seq", "inject_barrier", "receive_barrier",
      "_upstream_slot_uids", "_cut_epoch", "_finish_epoch_cut",
      "_forward_barrier", "_release_epoch", "abort_barrier_alignment"]),
    ("recovery", "repro.runtime.instance", "OperatorInstance",
     ["start_age_trimming", "_trim_by_age", "trim_buffer_to",
      "replay_buffer_to", "replay_all_buffers", "expect_replays",
      "release_replays_from", "_complete_drain", "restore_from",
      "set_suppression", "reinject"]),
    ("migration", "repro.runtime.instance", "OperatorInstance",
     ["begin_parking", "commit_parked", "abort_parking", "reabsorb_state",
      "absorb_chunk"]),
    ("instance.control", "repro.runtime.instance", "OperatorInstance", ALL),
    ("checkpoint", "repro.runtime.system", "StreamProcessingSystem",
     ["backup_checkpoint", "choose_backup_vm", "store_backup_sync",
      "_store_backup", "_materialize_delta", "backup_of", "drop_backup"]),
    ("recovery", "repro.runtime.system", "StreamProcessingSystem",
     ["notify_instance_failed", "_handle_lost_backups",
      "retire_backup_store", "_relocate_backup"]),
    ("scaling", "repro.runtime.system", "StreamProcessingSystem",
     ["record_vm_count", "worker_instances", "worker_vm_count"]),
    ("checkpoint", "repro.core.checkpoint", "Checkpoint", ALL),
    ("checkpoint", "repro.core.checkpoint", "EpochCut", ALL),
    ("checkpoint", "repro.core.checkpoint", "Checkpointer", ALL),
    ("checkpoint", "repro.core.checkpoint", "BackupStore", ALL),
    ("checkpoint", "repro.core.checkpoint", None,
     ["as_checkpoint", "materialize_increment", "from_external_store"]),
    ("routing", "repro.core.state", "RoutingState", ALL),
    ("routing", "repro.core.state", "KeyInterval", ALL),
    ("routing", "repro.core.tuples", None, ["stable_hash", "_canonical_bytes"]),
    ("state", "repro.core.state", "ProcessingState",
     [*STATE_POINT_OPS, "_own", "bulk_apply", "bulk_merge_buckets", "bulk_bucket_add",
      "enable_dirty_tracking", "consume_dirty", "keys", "share_all",
      "snapshot", "advance", "partition", "extract", "merge",
      "estimated_bytes"]),
    ("state", "repro.core.backend", "StateBackend", ALL),
    ("state", "repro.core.backend", "MemoryBackend", ALL),
    ("buffer", "repro.core.state", "OutputBuffer", ALL),
    ("operator.splitter", "repro.workloads.wordcount", "WordSplitter",
     ["on_tuple", "process_block"]),
    ("operator.counter", "repro.core.operators", "WindowedKeyedCounter",
     ["on_tuple", "process_block", "on_timer", "merge_values"]),
    ("operator.sink", "repro.runtime.sink", "SinkOperator",
     ["on_tuple", "process_block"]),
    ("operator.sink", "repro.runtime.sink", "WindowedResultCollector",
     ["__call__"]),
    ("migration", "repro.core.migration", "StateMover", ALL),
    ("migration", "repro.core.partition", None, ALL),
    ("scaling", "repro.scaling.reconfig", "ReconfigurationEngine", ALL),
    ("scaling", "repro.scaling.reconfig", "ReconfigPlan", ALL),
    ("scaling", "repro.scaling.coordinator", "ScaleOutCoordinator", ALL),
    ("scaling", "repro.scaling.scale_in", "ScaleInCoordinator", ALL),
    ("scaling", "repro.scaling.scale_in", "ScaleInPolicy", ALL),
    ("scaling", "repro.scaling.detector", "BottleneckDetector", ALL),
    ("scaling", "repro.scaling.policy", "ThresholdScalingPolicy", ALL),
    ("scaling", "repro.scaling.policy", "PredictiveScalingPolicy", ALL),
    ("scaling", "repro.scaling.reports", "UtilizationTracker", ALL),
    ("recovery", "repro.fault.recovery", "RecoveryCoordinator", ALL),
    ("metrics", "repro.sim.metrics", "MetricsHub", ALL),
    ("metrics", "repro.sim.metrics", "TimeSeries", ALL),
    ("metrics", "repro.sim.metrics", "RateSeries", ALL),
    ("metrics", "repro.sim.metrics", "LatencyReservoir", ALL),
    ("metrics", "repro.sim.metrics", "PhaseTimeline", ALL),
    ("obs", "repro.obs.telemetry", "Telemetry", ALL),
    ("obs", "repro.obs.span", "Tracer", ALL),
]

#: Called far too often for a span of their own: only counted, and their
#: time stays in whichever span called them.  The layer names where the
#: count is reported.
COUNT_ONLY: list[tuple[str, str, str, str]] = [
    ("sim", "repro.sim.events", "Event", "__lt__"),
    ("instance.emit", "repro.core.tuples", "Tuple", "__init__"),
]

#: Functions whose return values are summed (replayed tuple counts, the
#: kernels' "handled the block" flag).
SUM_RETURNS = {
    "repro.runtime.instance:OperatorInstance.replay_buffer_to",
    "repro.runtime.instance:OperatorInstance.replay_all_buffers",
    "repro.workloads.wordcount:WordSplitter.process_block",
    "repro.core.operators:WindowedKeyedCounter.process_block",
    "repro.runtime.sink:SinkOperator.process_block",
}

UNATTRIBUTED = "unattributed"
#: Pseudo-layer of the bottom stack frame: time outside every span.
OUTSIDE = -1
#: Target index of the event-dispatch span.
DISPATCH = 0


@dataclass
class Target:
    """A function selected by :data:`TARGETS` or :data:`COUNT_ONLY`."""

    layer: str
    name: str  # "module:Qual.name"
    owner: Any  # the class; None for a module function (patched everywhere)
    attr: str
    raw: Any  # the class-dict entry (may be a static/class method object)
    function: Callable
    count_only: bool = False


def _code_key(function: Callable) -> tuple[str, int, str]:
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _unwrap(raw: Any) -> Any:
    return raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw


def _class_functions(cls: type, names: Any) -> list[tuple[str, Any]]:
    """``(name, raw class-dict entry)`` pairs selected from ``cls``."""
    chosen = []
    for attr in list(vars(cls)) if names == ALL else names:
        if attr not in vars(cls):
            raise AttributeError(f"{cls.__qualname__} defines no {attr!r}")
        raw = vars(cls)[attr]
        function = _unwrap(raw)
        if not inspect.isfunction(function):
            continue  # properties, constants, nested classes
        if names == ALL and attr.startswith("__") and attr.endswith("__"):
            continue
        if inspect.isgeneratorfunction(function):
            continue  # the body runs later, in the consumer's span
        chosen.append((attr, raw))
    return chosen


def _rewrap(raw: Any, wrapper: Callable) -> Any:
    if isinstance(raw, staticmethod):
        return staticmethod(wrapper)
    if isinstance(raw, classmethod):
        return classmethod(wrapper)
    return wrapper


def select_targets() -> list[Target]:
    """Every function the ledger wraps, in :data:`TARGETS` order."""
    found: list[Target] = []
    seen: set[int] = set()
    claimed: set[tuple[type, str]] = set()
    for layer, module_name, cls_name, names in TARGETS:
        module = importlib.import_module(module_name)
        if cls_name is None:
            if names == ALL:
                names = [
                    n for n, f in vars(module).items()
                    if inspect.isfunction(f) and f.__module__ == module_name
                ]
            for attr in names:
                function = vars(module)[attr]
                if id(function) not in seen:
                    seen.add(id(function))
                    found.append(Target(layer, f"{module_name}:{attr}", None,
                                        attr, function, function))
            continue
        cls = getattr(module, cls_name)
        for attr, raw in _class_functions(cls, names):
            if (cls, attr) not in claimed:
                claimed.add((cls, attr))
                found.append(Target(layer, f"{module_name}:{cls_name}.{attr}",
                                    cls, attr, raw, _unwrap(raw)))
    for layer, module_name, cls_name, attr in COUNT_ONLY:
        cls = getattr(importlib.import_module(module_name), cls_name)
        function = vars(cls)[attr]
        found.append(Target(layer, f"{module_name}:{cls_name}.{attr}", cls, attr,
                            function, function, count_only=True))
    return found


class Patcher:
    """Replaces attributes and puts every original back, newest first."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @property
    def active(self) -> bool:
        return bool(self._saved)


def _run_callback(callback, *args):
    return callback(*args)


class Ledger:
    """Counts and self times per wrapped function (indexed like
    :attr:`targets`), aggregated per layer by :class:`LedgerSnapshot`."""

    def __init__(self) -> None:
        self.targets: list[Target] = []
        self._layer_ids: dict[str, int] = {}
        self.calls: list[int] = []
        #: Calls that entered this function's layer from another layer.
        self.entries: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.returns: list[float] = []
        #: Network bytes by message kind, and checkpoint backup bytes.
        self.bytes_by_kind: dict[str, float] = {}
        self.backup_bytes = 0.0
        self._stack: list[list] = [[OUTSIDE, 0.0]]
        self._paused = [False]
        self._patcher = Patcher()
        self._sampler: Callable[[float], None] | None = None
        self._sim: Any = None
        self._next_sample = float("inf")
        self._sample_every = 0.0

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every target; a module function is replaced in every
        loaded ``repro`` module that imported it by name."""
        if self._patcher.active:
            raise RuntimeError("ledger already installed")
        try:
            self._install()
        except BaseException:
            self._patcher.restore()
            raise

    def _install(self) -> None:
        self.targets = []
        dispatch = Target(UNATTRIBUTED, "perfbench:dispatch", None, "",
                          _run_callback, _run_callback)
        self._dispatch = self._timed(self._add(dispatch))
        for target in select_targets():
            fid = self._add(target)
            if target.count_only:
                self._patcher.replace(target.owner, target.attr, self._counter(fid))
            elif target.owner is None:
                self._replace_everywhere(target.function, self._wrap(fid))
            else:
                self._patcher.replace(
                    target.owner, target.attr, _rewrap(target.raw, self._wrap(fid))
                )

    def _add(self, target: Target) -> int:
        self.targets.append(target)
        for series in (self.calls, self.entries, self.returns):
            series.append(0)
        for series in (self.self_s, self.incl_s):
            series.append(0.0)
        self._layer_ids.setdefault(target.layer, len(self._layer_ids))
        return len(self.targets) - 1

    def _replace_everywhere(self, function: Callable, wrapper: Callable) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._patcher.replace(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every replaced attribute back."""
        self._patcher.restore()
        self._sim = None
        self._sampler = None

    @property
    def installed(self) -> bool:
        return self._patcher.active

    # ----------------------------------------------------------- wrappers

    def _wrap(self, fid: int) -> Callable:
        name = self.targets[fid].name
        if name == "repro.sim.simulator:Simulator.schedule_at":
            return self._timed(fid, inner=self._via_dispatch(self.targets[fid].function))
        hook = self._note_send if name == "repro.sim.network:Network.send" else None
        return self._timed(fid, hook=hook, sum_returns=name in SUM_RETURNS)

    def _timed(self, fid: int, hook: Callable | None = None,
               inner: Callable | None = None, sum_returns: bool = False) -> Callable:
        target = self.targets[fid]
        fn = inner or target.function
        layer = self._layer_ids[target.layer]
        calls, entries = self.calls, self.entries
        self_s, incl_s, returns = self.self_s, self.incl_s, self.returns
        stack, paused = self._stack, self._paused
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            calls[fid] += 1
            parent = stack[-1]
            if parent[0] != layer:
                entries[fid] += 1
            if hook is not None:
                hook(args, kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[fid] += elapsed - frame[1]
                incl_s[fid] += elapsed
                parent[1] += elapsed
            if sum_returns and result is not None:
                returns[fid] += result
            return result

        return _named(wrapper, target.function)

    def _counter(self, fid: int) -> Callable:
        fn = self.targets[fid].function
        calls, paused = self.calls, self._paused

        def counted(*args, **kwargs):
            if not paused[0]:
                calls[fid] += 1
            return fn(*args, **kwargs)

        return _named(counted, fn)

    def _via_dispatch(self, original: Callable) -> Callable:
        """``Simulator.schedule_at`` that makes every event callback run
        through the ledger's dispatch span (same time, priority and
        sequence number, so the simulation is unchanged)."""
        ledger = self

        def dispatch(callback, *args):
            sim = ledger._sim
            if sim is not None and sim.now >= ledger._next_sample:
                ledger._take_sample(sim.now)
            return ledger._dispatch(callback, *args)

        def schedule_at(self, when, callback, *args, **kwargs):
            return original(self, when, dispatch, callback, *args, **kwargs)

        return schedule_at

    def _note_send(self, args: tuple, kwargs: dict) -> None:
        # Network.send(self, src, dst, size_bytes, on_delivered, *args, kind=...)
        size = args[3]
        kind = kwargs.get("kind", "data")
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0.0) + size
        if getattr(args[4], "__name__", "") == "_store_backup":
            self.backup_bytes += size

    # ------------------------------------------------------------ sampling

    def sample_every(self, sim: Any, seconds: float,
                     sampler: Callable[[float], None]) -> None:
        """Call ``sampler(now)`` at the first event at or after every
        multiple of ``seconds`` of simulated time; the sampler's own
        calls into wrapped code are not counted."""
        self._sim = sim
        self._sampler = sampler
        self._sample_every = seconds
        self._next_sample = sim.now

    def _take_sample(self, now: float) -> None:
        self._paused[0] = True
        try:
            self._sampler(now)
        finally:
            self._paused[0] = False
        step = self._sample_every
        self._next_sample = (int(now / step) + 1) * step

    # ----------------------------------------------------------- results

    def reset(self) -> None:
        """Zero every count and time (called right before the timed run)."""
        for series in (self.calls, self.entries, self.returns):
            series[:] = [0] * len(series)
        for series in (self.self_s, self.incl_s):
            series[:] = [0.0] * len(series)
        self.bytes_by_kind.clear()
        self.backup_bytes = 0.0
        self._stack[:] = [[OUTSIDE, 0.0]]

    def snapshot(self, wall_s: float) -> "LedgerSnapshot":
        """Freeze the counts of the run just timed (``wall_s`` long)."""
        return LedgerSnapshot(
            targets=list(self.targets),
            calls=list(self.calls),
            entries=list(self.entries),
            self_s=list(self.self_s),
            incl_s=list(self.incl_s),
            returns=list(self.returns),
            bytes_by_kind=dict(self.bytes_by_kind),
            backup_bytes=self.backup_bytes,
            outside_s=wall_s - self._stack[0][1],
            wall_s=wall_s,
        )


def _named(wrapper: Callable, function: Callable) -> Callable:
    wrapper.__name__ = function.__name__
    wrapper.__qualname__ = function.__qualname__
    wrapper.__wrapped__ = function
    return wrapper


@dataclass
class LedgerSnapshot:
    """The frozen result of one traced run (lists indexed like ``targets``)."""

    targets: list[Target]
    calls: list[int]
    entries: list[int]
    self_s: list[float]
    incl_s: list[float]
    returns: list[float]
    bytes_by_kind: dict[str, float]
    backup_bytes: float
    #: Traced wall time spent outside every span.
    outside_s: float
    wall_s: float

    def _index(self, name: str) -> int:
        for fid, target in enumerate(self.targets):
            if target.name == name:
                return fid
        raise KeyError(f"no wrapped function {name!r}")

    def count(self, name: str) -> int:
        return self.calls[self._index(name)]

    def entered(self, name: str) -> int:
        return self.entries[self._index(name)]

    def returned(self, name: str) -> float:
        return self.returns[self._index(name)]

    def inclusive_s(self, name: str) -> float:
        return self.incl_s[self._index(name)]

    def self_time(self, name: str) -> float:
        return self.self_s[self._index(name)]

    def layer_calls(self, layer: str, entries_only: bool = False) -> int:
        series = self.entries if entries_only else self.calls
        return sum(series[fid] for fid, t in enumerate(self.targets)
                   if t.layer == layer and not t.count_only)

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer; ``unattributed`` includes the time
        outside every span.  The values sum to ``wall_s``."""
        totals: dict[str, float] = {}
        for fid, target in enumerate(self.targets):
            if not target.count_only:
                totals[target.layer] = totals.get(target.layer, 0.0) + self.self_s[fid]
        totals[UNATTRIBUTED] = totals.get(UNATTRIBUTED, 0.0) + self.outside_s
        return totals

    def closure_error_s(self) -> float:
        """|sum of layer self times - traced wall|; zero up to rounding."""
        return abs(sum(self.layer_self_s().values()) - self.wall_s)


def profiled_counts(stats: dict) -> dict[str, int]:
    """cProfile ``ncalls`` of every function :func:`select_targets` picks.

    ``stats`` is ``pstats.Stats(profile).stats``; a function the profiler
    never saw counts as 0.
    """
    ncalls: dict[tuple, int] = {}
    for key, (_cc, calls, _tt, _ct, _callers) in stats.items():
        ncalls[key] = ncalls.get(key, 0) + calls
    return {
        target.name: ncalls.get(_code_key(target.function), 0)
        for target in select_targets()
    }


def crosscheck(snapshot: LedgerSnapshot,
               profiled: dict[str, int]) -> list[tuple[str, int, int | None]]:
    """``(function, traced, profiled)`` for every wrapped program function
    whose traced call count differs from its cProfile ``ncalls``."""
    mismatches = []
    for fid, target in enumerate(snapshot.targets):
        if fid == DISPATCH:
            continue
        traced = snapshot.calls[fid]
        seen = profiled.get(target.name)
        if traced != seen:
            mismatches.append((target.name, traced, seen))
    return mismatches
