"""Fresh-interpreter probes started by the benchmark (one per process).

``probe.py setup <workload> <seed>`` times the first ``import repro``
through query build, deploy and state padding, and prints
``{"setup_s": ...}``.  ``probe.py run <workload> <seed>`` also runs the
sub-run untraced and prints its wall time, fingerprint and oracle result;
``probe.py profile <workload> <seed>`` runs it under cProfile and adds the
call counts of every function the ledger wraps.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (does not import repro)


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    start = time.perf_counter()
    run = workloads.build(name, seed)
    setup_s = time.perf_counter() - start
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import measure

    ncalls = None
    if mode == "profile":
        ncalls = measure.profiled_run(run)
        wall = 0.0
    else:
        wall = measure.run_timed(run)
    result = measure.summarize(run, wall)
    print(json.dumps({
        "wall_s": wall,
        "ncalls": ncalls,
        "fingerprint": result.fingerprint,
        "checked": result.report.checked,
        "failed": result.report.failed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
