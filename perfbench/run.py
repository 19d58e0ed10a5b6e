"""The repository benchmark: word-count workloads on the simulated SPS.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wc-rows --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger of one traced sub-run.  Either way the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable report with sample counts and oracle details.
Workloads and their rationale live in ``perfbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="wall-clock budget for the untraced sub-runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import workloads

    if args.workload not in workloads.workload_names():
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{workloads.workload_names()}", file=sys.stderr)
        return 2
    if args.trace:
        result = measure.measure_traced(args.workload, args.seed)
    else:
        result = measure.measure_end_to_end(args.workload, args.seed, args.seconds)
    problems = result.problems + [
        f"metric {name} is not finite: {value}"
        for name, (value, _unit) in result.metrics.items()
        if not math.isfinite(value)
    ]
    kind = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"== {args.workload} seed {args.seed}: {kind} metrics")
    width = max(len(name) for name in result.metrics)
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<{width}}  {value:>16.6f}  {unit}")
    for note in result.notes:
        print(f"  {note}")
    for problem in problems:
        print(f"  FAIL {problem}")
    correct = result.attempted > 0 and result.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
