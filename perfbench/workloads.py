"""Workload definitions and their seeded plans.

Every plan is a pure function of ``(workload, seed, seconds)``: the same
arguments give the same operations, ids, sizes and arrival offsets.  The
program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import random
import zlib

#: Seed at which results are also compared with ``expected/default_seed.json``.
DEFAULT_SEED = 1

PAPER_ALGORITHMS = ("unbalanced", "r-unbalanced", "balanced", "r-balanced", "all-attributes")
FUNCTIONS = ("f1", "f2", "f3", "f4", "f5")

#: In-process workloads: one closed-loop caller, ops issued in whole rounds.
INPROCESS = {
    # Table 2 of the paper: 7,300 workers on the 5x5-bucket paper schema.
    # Runnable and traceable, but not in BENCHMARK.json: its timings spread
    # past any bound the benchmark may set on a 2-vCPU host (see README).
    "table2-audit": {
        "n_workers": 7300,
        "year_of_birth_buckets": 5,
        "experience_buckets": 5,
        "algorithms": PAPER_ALGORITHMS,
    },
    # 1M workers on 20x10 numeric buckets: 14,400 populated atoms.
    "wide-1m-audit": {
        "n_workers": 1_000_000,
        "year_of_birth_buckets": 20,
        "experience_buckets": 10,
        "algorithms": ("balanced", "all-attributes"),
    },
}

#: Flags of the daemon under test.  The queue limit is far above any backlog
#: the capacity phase hands over, so nothing is refused.
DAEMON_FLAGS = (
    "--queue-workers", "2",
    "--queue-limit", "100000",
    "--batch-max", "1",
)

#: Daemon workloads.  ``rate`` is the offered open-loop rate (jobs/s), about
#: half of ``capacity_estimate``, the backlog-drain rate measured on a 2-core
#: host (set medians 2.0-2.2 jobs/s).  A run is a train of blocks, each an
#: open-loop segment of ``open_cycles`` five-job cycles followed by a
#: capacity backlog of ``backlog_cycles`` cycles; the blocks together take
#: about ``measure_share`` of the run.  Interleaving spreads both the latency
#: and the capacity samples over the whole run, so a slow stretch of a shared
#: host weighs on every metric alike instead of on one phase.
DAEMON = {
    # Every job has its own n_workers, so no cache layer can answer it.
    "daemon-cold": {
        "rate": 1.25,
        "capacity_estimate": 2.0,
        "open_cycles": 2,
        "backlog_cycles": 1,
        "measure_share": 0.85,
        "p90_limit_ms": 2000.0,
    },
}

WORKLOADS = tuple(INPROCESS) + tuple(DAEMON)


def op_seed(workload: str, seed: int, algorithm: str, function: str) -> int:
    """rng seed of one audit cell (only the r-* baselines draw from it)."""
    return zlib.crc32(f"{workload}:{seed}:{algorithm}:{function}".encode())


def inprocess_round(workload: str, seed: int, index: int) -> "list[tuple[str, str, int]]":
    """Round ``index`` of an in-process workload as ``(algorithm, function, rng_seed)``.

    table2-audit: all five paper algorithms x f1..f5 (the whole of Table 2).
    wide-1m-audit: each algorithm once on one function, rotating per round.
    """
    algorithms = INPROCESS[workload]["algorithms"]
    if workload == "table2-audit":
        cells = [(a, f) for f in FUNCTIONS for a in algorithms]
    else:
        function = FUNCTIONS[(seed + index) % len(FUNCTIONS)]
        cells = [(a, function) for a in algorithms]
    return [(a, f, op_seed(workload, seed, a, f)) for a, f in cells]


def _job(job_id: str, algorithm: str, function: str, seed: int, n_workers: int) -> dict:
    return {
        "schema": "repro.job/v2",
        "id": job_id,
        "scenario": "table2",
        "algorithm": algorithm,
        "functions": [function],
        "seed": seed,
        "n_workers": n_workers,
    }


def daemon_plan(workload: str, seed: int, seconds: float) -> dict:
    """The jobs one daemon run submits.

    ``warmup``: jobs submitted during set-up.  ``blocks``: the timed phase,
    in order; each block is ``{"open": [(due_offset_s, spec)], "backlog":
    [spec]}``, the open-loop arrivals at the fixed offered rate (offsets
    from the segment's start) and then one backlog handed over at once.
    Every job has its own ``n_workers``, so every cache misses; the seed
    picks the populations and the r-* baselines' draws.  Each cycle of five
    jobs pairs the five algorithms with the five functions (a Latin square
    shifted by cycle), so every segment, backlog and run carries the same
    mix.
    """
    cfg = DAEMON[workload]
    rng = random.Random(f"{workload}:{seed}")
    cycle = len(PAPER_ALGORITHMS)
    block_s = cycle * (cfg["open_cycles"] / cfg["rate"]
                       + cfg["backlog_cycles"] / cfg["capacity_estimate"])
    n_blocks = max(1, int(cfg["measure_share"] * seconds / block_s))
    base = 7300 + 64 * (seed % 20)
    sizes = iter(range(base + 1, base + (1 << 30)))
    counters = {"o": 0, "c": 0}

    def make(prefix: str) -> dict:
        i = counters[prefix]
        counters[prefix] += 1
        algorithm = PAPER_ALGORITHMS[i % cycle]
        function = FUNCTIONS[(i % cycle + i // cycle) % len(FUNCTIONS)]
        return _job(f"{prefix}{i}", algorithm, function, rng.randrange(1 << 30), next(sizes))

    blocks = []
    for _ in range(n_blocks):
        arrivals = [(j / cfg["rate"], make("o")) for j in range(cfg["open_cycles"] * cycle)]
        blocks.append({
            "open": arrivals,
            "backlog": [make("c") for _ in range(cfg["backlog_cycles"] * cycle)],
        })
    return {"warmup": [_job("w0", "all-attributes", "f1", 0, base)], "blocks": blocks}


def open_arrivals(plan: dict) -> "list[tuple[float, dict]]":
    """Every open-loop arrival of a daemon plan, in order."""
    return [arrival for block in plan["blocks"] for arrival in block["open"]]
