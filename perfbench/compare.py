"""Compare a parent result set with a change result set.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced result files ``run.py --out DIR`` wrote
(one per workload and seed).  Prints a markdown table with one row per
workload x end-to-end metric: each side's median and quartiles, the paired
wins of the change, and a verdict (improved / unchanged / regressed /
unresolved, see :func:`perfbench.stats.verdict`).  Runs are paired by seed
when both sides used the same seeds, otherwise in seed order.  Exits 1 when
any metric regressed or any run failed an output check.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT)]

from perfbench import stats  # noqa: E402


def load(directory: Path) -> "dict[str, dict[int, dict]]":
    """Untraced results by workload, then seed."""
    out: "dict[str, dict[int, dict]]" = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        out.setdefault(record["workload"], {})[record["seed"]] = record
    return out


def _pair(parent: dict, change: dict):
    common = sorted(set(parent) & set(change))
    if len(common) >= 2:
        return [parent[s] for s in common], [change[s] for s in common]
    n = min(len(parent), len(change))
    return ([parent[s] for s in sorted(parent)[:n]], [change[s] for s in sorted(change)[:n]])


def _fmt(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}" if values else "-"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> "tuple[str, bool]":
    parent, change = load(parent_dir), load(change_dir)
    lines = [
        "| workload | metric | unit | parent median [q1, q3] | change median [q1, q3] "
        "| change wins | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    ok = True
    for workload in sorted(set(parent) | set(change)):
        runs_p, runs_c = _pair(parent.get(workload, {}), change.get(workload, {}))
        if any(not r["correct"] for r in runs_p + runs_c):
            ok = False
        for metric in spec["end_to_end"]:
            name = metric["name"]
            vp = [r["metrics"][name]["value"] for r in runs_p]
            vc = [r["metrics"][name]["value"] for r in runs_c]
            if len(vp) < 2:
                verdict, wins = "unresolved", "-"
            else:
                verdict = stats.verdict(vp, vc, metric["better"], metric["bound"])
                sign = 1 if metric["better"] == "higher" else -1
                wins = f"{sum(1 for p, c in zip(vp, vc) if sign * (c - p) > 0)}/{len(vp)}"
            ok = ok and verdict != "regressed"
            lines.append(
                f"| {workload} | {name} | {metric['unit']} | {_fmt(vp)} | {_fmt(vc)} "
                f"| {wins} | {verdict} |"
            )
    return "\n".join(lines), ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table, ok = compare(Path(argv[0]), Path(argv[1]), spec)
    print(table)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
