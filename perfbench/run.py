"""Run one benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload table2-audit --seed 3 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 50

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``
with every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``).  A full result record (samples, host and
configuration, errors) is written under ``--out``; a traced run also writes
its spans there.  The exit code is non-zero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import the benchmark as a package and the library from this checkout only.
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402


def host_info(root: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "platform": platform.platform(),
    }


def run_one(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = Path(args.out) if args.out else ROOT / ".perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    started = time.time()
    if args.workload in workloads.INPROCESS:
        from perfbench import inproc

        record = inproc.run(ROOT, args.workload, args.seed, args.seconds, trace)
    else:
        from perfbench import daemon

        with tempfile.TemporaryDirectory(prefix="work-", dir=out_dir) as workroot:
            record = daemon.run(ROOT, args.workload, args.seed, args.seconds, trace, Path(workroot))
    declared = spec["per_layer" if trace else "end_to_end"]
    produced = record.pop("metrics")
    metrics = {}
    for metric in declared:
        # Layers a workload never crosses (the engine for daemon workloads,
        # HTTP for in-process ones) read 0.
        value, unit = produced.pop(metric["name"], (0.0, metric["unit"]))
        if unit != metric["unit"]:
            raise RuntimeError(f"{metric['name']}: unit {unit} != declared {metric['unit']}")
        metrics[metric["name"]] = {"value": value, "unit": unit}
    if produced:
        raise RuntimeError(f"undeclared metrics: {sorted(produced)}")
    spans = record.pop("spans", None)
    stem = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    if spans is not None:
        # One (name, start, end, parent, op) span per line.
        with open(out_dir / f"{stem}.spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    correct = record["failed"] == 0 and not record["errors"]
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=int(trace),
        started=started,
        host=host_info(ROOT),
        config=workloads.INPROCESS.get(args.workload) or workloads.DAEMON[args.workload],
        correct=correct,
        metrics=metrics,
    )
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for error in record["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload:14s} {name:26s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)] + (["--out", args.out] if args.out else []),
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{workload}: no result (exit {proc.returncode})", file=sys.stderr)
            combined["correct"] = False
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
        status = status or proc.returncode
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="result directory (default: .perfbench/)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        from perfbench import inproc

        inproc.setup_probe(args.workload, args.seed)
        return 0
    # A terminated run unwinds normally, so every daemon it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
