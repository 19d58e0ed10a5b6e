"""Self-tests of the benchmark's oracle and ledger.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import cProfile
import importlib
import json
import pstats
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ledger  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

#: Simulated seconds of the short sub-runs used here.
SHORT = 3.0


def short_run(name: str = "wc-rows", seed: int = 7) -> workloads.SubRun:
    run = workloads.build(name, seed)
    run.duration = SHORT
    return run


def cold_hash_memo() -> None:
    """Start each compared run with an empty ``stable_hash`` memo, as a
    fresh interpreter would; the memo is a process-wide cache whose
    hits skip ``_canonical_bytes`` calls."""
    importlib.import_module("repro.core.tuples")._hash_cache.clear()


# ---------------------------------------------------------------- oracle


def test_expected_counts_weight_each_occurrence_in_its_window():
    injected = [(0.5, ("a", "b", "a"), 1), (9.99, ("a",), 2), (10.0, ("b",), 1)]
    assert oracle.expected_counts(injected, 10.0) == Counter(
        {("a", 0): 4, ("b", 0): 1, ("b", 1): 1}
    )


def test_last_checked_window_leaves_flush_time_for_the_last_window():
    assert oracle.last_checked_window(60.0, 10.0, 10.0) == 3
    assert oracle.last_checked_window(120.0, 10.0, 10.0) == 9


def test_oracle_flags_one_perturbed_and_one_missing_result():
    expected = Counter({("a", 0): 3, ("b", 0): 1, ("a", 1): 2, ("c", 5): 9})
    exact = {("a", 0): 3, ("b", 0): 1, ("a", 1): 2}
    clean = oracle.compare(expected, exact, last_window=1)
    assert (clean.checked, clean.failed) == (3, 0)

    perturbed = dict(exact)
    perturbed[("a", 0)] = 4
    del perturbed[("b", 0)]
    report = oracle.compare(expected, perturbed, last_window=1)
    assert (report.checked, report.missing, report.wrong) == (3, 1, 1)


def test_oracle_flags_a_result_it_does_not_expect():
    expected = Counter({("a", 0): 1})
    report = oracle.compare(expected, {("a", 0): 1, ("z", 0): 1}, last_window=0)
    assert (report.checked, report.wrong) == (2, 1)


def test_workload_run_matches_the_oracle():
    run = workloads.build("wc-rows", 3)
    run.duration = 40.0
    run.system.run(until=run.duration)
    report = oracle.check_sub_run(run)
    assert report.windows == 2 and report.checked > 0
    assert report.failed == 0


# ---------------------------------------------------------------- ledger


def _bindings() -> dict[tuple[int, str], object]:
    """Every attribute the ledger may replace, with its current value."""
    bound = {}
    targets = ledger.select_targets()
    functions = {id(t.function) for t in targets if t.owner is None}
    for target in targets:
        if target.owner is not None:
            bound[(id(target.owner), target.attr)] = vars(target.owner)[target.attr]
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            if id(value) in functions:
                bound[(id(module), attr)] = value
    return bound


def test_traced_run_restores_every_class_attribute_and_module_global():
    before = _bindings()
    runtime_instance = importlib.import_module("repro.runtime.instance")
    original_hash = runtime_instance.stable_hash
    tracer = ledger.Ledger()
    tracer.install()
    try:
        # instance.py imports stable_hash by name: it is patched there too.
        assert runtime_instance.stable_hash is not original_hash
        assert runtime_instance.stable_hash.__wrapped__ is original_hash
    finally:
        tracer.uninstall()
    assert _unchanged(before)

    _run, snap, _sampler, _wall = measure.traced_run(
        "wc-rows", 5, ledger.Ledger(), duration=SHORT
    )
    assert snap.count("repro.core.tuples:stable_hash") > 0
    assert _unchanged(before)


def test_ledger_is_removed_when_the_traced_run_fails():
    before = _bindings()
    tracer = ledger.Ledger()
    with pytest.raises(KeyError):
        measure.traced_run("no-such-workload", 0, tracer)
    assert not tracer.installed
    assert _unchanged(before)


def _unchanged(before: dict) -> bool:
    after = _bindings()
    return after.keys() == before.keys() and all(
        after[key] is value for key, value in before.items()
    )


def test_ledger_closes_and_matches_cprofile_on_the_same_seed():
    cold_hash_memo()
    tracer = ledger.Ledger()
    tracer.install()
    try:
        run = short_run()
        tracer.reset()
        wall = measure.run_timed(run)
        snap = tracer.snapshot(wall)
    finally:
        tracer.uninstall()
    assert snap.closure_error_s() < 1e-6
    assert sum(snap.layer_self_s().values()) == pytest.approx(wall)
    assert snap.calls[ledger.DISPATCH] > 0

    cold_hash_memo()
    other = short_run()
    profile = cProfile.Profile()
    profile.enable()
    other.system.run(until=other.duration)
    profile.disable()
    profiled = ledger.profiled_counts(pstats.Stats(profile).stats)
    assert ledger.crosscheck(snap, profiled) == []
    assert measure.fingerprint(run) == measure.fingerprint(other)


def test_same_seed_gives_identical_simulated_outcomes():
    first, second = short_run(seed=11), short_run(seed=11)
    first.system.run(until=SHORT)
    second.system.run(until=SHORT)
    assert measure.fingerprint(first) == measure.fingerprint(second)
    assert first.injected == second.injected


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    run, snap, sampler, _wall = measure.traced_run(
        "wc-blocks", 2, ledger.Ledger(), duration=SHORT
    )
    produced = measure.per_layer_metrics(run, snap, sampler)
    produced.update({name: (0.0, unit) for name, unit in measure.TRACE_UNITS.items()})
    assert {name: unit for name, (_v, unit) in produced.items()} == declared


def test_workloads_json_matches_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, workloads.workload(name)["why"]) for name in workloads.workload_names()
    ]
