"""Record the expected outputs at the default seed.

    python3 perfbench/record_expected.py

Writes ``perfbench/expected/default_seed.json``: every (algorithm, function)
cell of both in-process workloads, and the rows of the daemon workloads'
checked jobs, all computed in-process through the public API.  Run it only
when the program's results are meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench import daemon, inproc, workloads  # noqa: E402


def main() -> int:
    seed = workloads.DEFAULT_SEED
    out = {}
    for workload, cfg in workloads.INPROCESS.items():
        population, functions, spec = inproc.build_inputs(workload, seed)
        ops = [
            (a, f, workloads.op_seed(workload, seed, a, f))
            for f in workloads.FUNCTIONS
            for a in cfg["algorithms"]
        ]
        out[workload] = {
            f"{a}/{f}": inproc.result_summary(result)
            for a, f, _elapsed, _scores, result in inproc.run_round(ops, population, functions, spec)
        }
    for workload in workloads.DAEMON:
        arrivals = workloads.open_arrivals(workloads.daemon_plan(workload, seed, 50.0))
        out[workload] = daemon.reaudit([s for _, s in arrivals[: daemon.REAUDIT_SAMPLE]])
    path = ROOT / "perfbench" / "expected" / "default_seed.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
