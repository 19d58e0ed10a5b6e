"""Build one sub-run of a benchmark workload from ``workloads.json``.

A sub-run is one deployment of the §6.2 word-count query, set up exactly
as its workload entry says and ready for ``system.run(until=duration)``.
Importing this module does not import ``repro``: the set-up probe times
the first ``import repro`` itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

SPEC_PATH = Path(__file__).with_name("workloads.json")


def load_spec() -> dict[str, Any]:
    """The parsed ``workloads.json``."""
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def workload_names() -> list[str]:
    return list(load_spec()["workloads"])


def workload(name: str) -> dict[str, Any]:
    """One workload entry; raises KeyError for an unknown name."""
    return load_spec()["workloads"][name]


def sub_seed(seed: int, index: int) -> int:
    """The system seed of sub-run ``index`` of a benchmark run at ``seed``."""
    return seed * 100 + index


@dataclass
class SubRun:
    """A deployed, not yet started word-count system plus its probes."""

    name: str
    seed: int
    duration: float
    window: float
    grace: float
    system: Any
    query: Any
    #: ``(created_at, words, weight)`` of every tuple injected at a source.
    injected: list[tuple[float, tuple, int]] = field(default_factory=list)

    @property
    def source_weight(self) -> float:
        """Tuple weight offered at the sources (fixed per workload+seed)."""
        return float(sum(weight for _t, _words, weight in self.injected))


def _set_override(config: Any, dotted: str, value: Any) -> None:
    target = config
    *path, leaf = dotted.split(".")
    for part in path:
        target = getattr(target, part)
    if not hasattr(target, leaf):
        raise KeyError(f"unknown SystemConfig field {dotted!r}")
    setattr(target, leaf, value)


def _rate(spec: dict[str, Any]):
    from repro.workloads.synthetic import constant_rate, linear_ramp

    if "constant" in spec:
        return constant_rate(spec["constant"])
    start, end, seconds = spec["ramp"]
    return linear_ramp(start, end, seconds)


def _capture_injections(instance: Any, sim: Any, sink: list) -> None:
    """Record every injection at a source instance for the oracle.

    The wrapper is an instance attribute, so the class (and any other
    instance) is untouched; generators look ``instance.inject`` up per
    call and so reach it.
    """
    inject = instance.inject

    def capture(key: Any, payload: Any, weight: int = 1) -> None:
        sink.append((sim.now, payload, weight))
        inject(key, payload, weight)

    instance.inject = capture


def build(name: str, seed: int) -> SubRun:
    """Deploy workload ``name`` with system seed ``seed``."""
    from repro.config import SystemConfig
    from repro.experiments.harness import pad_counter_state
    from repro.runtime.system import StreamProcessingSystem
    from repro.workloads import build_word_count_query

    spec = workload(name)
    query_args = dict(spec["query"])
    query_args["rate"] = _rate(query_args["rate"])
    query = build_word_count_query(**query_args)
    config = SystemConfig()
    config.seed = seed
    for dotted, value in spec["overrides"].items():
        _set_override(config, dotted, value)
    system = StreamProcessingSystem(config)
    system.deploy(query.graph, generators=query.generators)
    if spec["pad_entries"]:
        pad_counter_state(system, query.counter_name, spec["pad_entries"])
    crash = spec["crash"]
    if crash is not None:
        system.injector.fail_target_at(
            lambda: system.vm_of(crash["op"], crash["partition"]), crash["at"]
        )
    counter = query.graph.operators[query.counter_name]
    run = SubRun(
        name=name,
        seed=seed,
        duration=float(spec["duration"]),
        window=counter.window,
        grace=counter.grace,
        system=system,
        query=query,
    )
    for instance in system.instances_of(query.source_name):
        _capture_injections(instance, system.sim, run.injected)
    return run
