"""In-process audit workloads: one closed-loop caller of the public API.

Each op scores the population with one paper function and runs one
algorithm with a fresh default engine.  Ops are issued in whole rounds (see
:func:`workloads.inprocess_round`) so every run carries the same mix; a new
round starts only while it is projected to finish within the run length.
Output checks run between ops, outside the timed region.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench import refcheck, spans, stats, workloads

#: Set-up probes per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def build_inputs(workload: str, seed: int):
    """The population and the paper's scoring functions for one workload."""
    from repro.core.histogram import HistogramSpec
    from repro.marketplace.scoring import paper_functions
    from repro.simulation.generator import generate_paper_population

    cfg = workloads.INPROCESS[workload]
    population = generate_paper_population(
        cfg["n_workers"],
        seed=seed,
        year_of_birth_buckets=cfg["year_of_birth_buckets"],
        experience_buckets=cfg["experience_buckets"],
    )
    return population, paper_functions(), HistogramSpec(bins=10)


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body of one set-up measurement (imports + inputs)."""
    population, functions, _ = build_inputs(workload, seed)
    functions["f1"](population)
    print("ready", flush=True)


def measure_setup(root: Path, workload: str, seed: int) -> "list[float]":
    """Spawn-to-ready wall time of :data:`SETUP_REPEATS` fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=root, capture_output=True, text=True, timeout=120,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or proc.stdout.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        times.append(elapsed)
    return times


class _Tracing:
    """Span wrappers around every layer the audit crosses (traced run only)."""

    def __init__(self, recorder: spans.SpanRecorder) -> None:
        from repro.core import splitting
        from repro.engine import kernels
        from repro.engine.atoms import AtomTable

        self.recorder = recorder
        self._undo = []
        for module, name, span in (
            (splitting, "split_partition", "splitting.split"),
            (splitting, "split_partitions", "splitting.split_many"),
            (kernels, "pairwise_matrix", "kernels.pairwise"),
            (kernels, "cross_matrix", "kernels.pairwise"),
        ):
            original = getattr(module, name)
            self._undo += spans.patch_everywhere(original, recorder.wrap(original, span))
        build = AtomTable.__dict__["build"]
        AtomTable.build = classmethod(recorder.wrap(build.__func__, "atoms.build"))
        self._undo.append((AtomTable, "build", build))

    def close(self) -> None:
        spans.unpatch(self._undo)

    def engine_factory(self, population, scores, **kwargs):
        """Build the engine inside an ``engine.init`` span and wrap its methods."""
        from repro.engine.engine import EvaluationEngine

        rec = self.recorder
        index = rec.begin("engine.init")
        try:
            engine = EvaluationEngine(population, scores, **kwargs)
        finally:
            rec.end(index)
        engine.unfairness = rec.wrap(engine.unfairness, "engine.unfairness")
        for name in ("score_attribute_splits", "split_pmfs", "score_many"):
            setattr(engine, name, rec.wrap(getattr(engine, name), "engine.split_scoring"))
        make_objective = engine.incremental

        def incremental(*args, **kw):
            # The incremental objective scores candidate splits for the
            # unbalanced searches; its scoring calls count as split scoring.
            objective = make_objective(*args, **kw)
            for name in ("score_add_pmfs", "score_add", "score_replace", "score_split"):
                setattr(objective, name, rec.wrap(getattr(objective, name), "engine.split_scoring"))
            return objective

        engine.incremental = rec.wrap(incremental, "engine.split_scoring")
        return engine


def run_round(ops, population, functions, spec, tracing=None):
    """Run one round; returns ``[(algorithm, function, seconds, scores, result)]``."""
    import numpy as np

    from repro.core.algorithms import get_algorithm

    out = []
    for algorithm, function, rng_seed in ops:
        if tracing is None:
            start = time.perf_counter()
            scores = functions[function](population)
            result = get_algorithm(algorithm).run(
                population, scores, hist_spec=spec, rng=np.random.default_rng(rng_seed)
            )
            elapsed = time.perf_counter() - start
        else:
            rec = tracing.recorder
            rec.op += 1
            start = time.perf_counter()
            op = rec.begin("op")
            index = rec.begin("scoring")
            scores = functions[function](population)
            rec.end(index)
            index = rec.begin("search")
            result = get_algorithm(algorithm).run(
                population, scores, hist_spec=spec,
                rng=np.random.default_rng(rng_seed),
                engine_factory=tracing.engine_factory,
            )
            rec.end(index)
            rec.end(op)
            elapsed = time.perf_counter() - start
        out.append((algorithm, function, elapsed, scores, result))
    return out


def load_expected(root: Path) -> dict:
    path = root / "perfbench" / "expected" / "default_seed.json"
    return json.loads(path.read_text())


def result_summary(result) -> dict:
    return {
        "unfairness": result.unfairness,
        "k": result.partitioning.k,
        "digest": refcheck.partitioning_digest(result.partitioning.partitions),
    }


def check_op(codes, population, function, scores, result, expected) -> "list[str]":
    errors = refcheck.check_scores(population, function, scores)
    errors += refcheck.check_result(codes, scores, result)
    if expected is not None:
        want = expected.get(f"{result.algorithm}/{function}")
        got = result_summary(result)
        if want is None:
            errors.append(f"no expected output for {result.algorithm}/{function}")
        elif (
            want["k"] != got["k"]
            or want["digest"] != got["digest"]
            or abs(want["unfairness"] - got["unfairness"]) > 1e-12
        ):
            errors.append(f"{result.algorithm}/{function}: {got} != expected {want}")
    return errors


_LAYERS = (
    ("scoring.score_ms", "scoring"),
    ("atoms.build_ms", "atoms.build"),
    ("engine.init_ms", "engine.init"),
    ("engine.unfairness_ms", "engine.unfairness"),
    ("engine.split_scoring_ms", "engine.split_scoring"),
    ("splitting.split_ms", ("splitting.split", "splitting.split_many")),
    ("kernels.pairwise_ms", "kernels.pairwise"),
    ("search.self_ms", "search"),
)


def layer_metrics(recorder, results) -> dict:
    """Per-audit layer self times and counts from the traced rounds."""
    n_ops = len(results)
    own = spans.self_time_by_name(recorder.spans)
    calls = spans.count_by_name(recorder.spans)
    out = {}
    named = 0.0
    for metric, names in _LAYERS:
        names = (names,) if isinstance(names, str) else names
        seconds = sum(own.get(name, 0.0) for name in names)
        named += seconds
        out[metric] = (1000.0 * seconds / n_ops, "ms")
    wall = sum(elapsed for _a, _f, elapsed, _s, _r in results)
    out["trace.coverage_frac"] = (named / wall, "ratio")
    out["engine.unfairness_calls"] = (calls.get("engine.unfairness", 0) / n_ops, "count")
    out["splitting.split_calls"] = (calls.get("splitting.split", 0) / n_ops, "count")
    evaluations = sum(r.n_evaluations for *_x, r in results)
    hits = sum(r.cache_hits for *_x, r in results)
    computed = sum(r.pair_distances_computed for *_x, r in results)
    full = sum(r.pair_distances_full for *_x, r in results)
    out["engine.evaluations"] = (evaluations / n_ops, "count")
    out["engine.cache_hit_ratio"] = (hits / evaluations if evaluations else 0.0, "ratio")
    out["engine.pair_ratio"] = (computed / full if full else 0.0, "ratio")
    return out


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of an in-process workload; returns the result record."""
    setup_times = measure_setup(root, workload, seed)
    import repro.simulation.generator  # noqa: F401  (import cost is not generation)

    gen_start = time.perf_counter()
    population, functions, spec = build_inputs(workload, seed)
    generate_s = time.perf_counter() - gen_start
    codes = refcheck.protected_codes(population)
    expected = None
    if seed == workloads.DEFAULT_SEED:
        expected = load_expected(root)[workload]

    recorder = spans.SpanRecorder() if trace else None
    latencies, errors, traced_results = [], [], []
    attempted = failed = 0
    timed = {False: 0.0, True: 0.0}
    ops_done = {False: 0, True: 0}
    # A traced run repeats every round with tracing on, so the tracing
    # overhead is measured on identical work in one process.
    modes = (False, True) if trace else (False,)
    index = 0
    while True:
        ops = workloads.inprocess_round(workload, seed, index)
        group = 0.0
        for traced in modes:
            tracing = _Tracing(recorder) if traced else None
            try:
                results = run_round(ops, population, functions, spec, tracing)
            finally:
                if tracing is not None:
                    tracing.close()
            spent = sum(r[2] for r in results)
            group += spent
            timed[traced] += spent
            ops_done[traced] += len(results)
            for algorithm, function, elapsed, scores, result in results:
                attempted += 1
                op_errors = check_op(codes, population, function, scores, result, expected)
                if op_errors:
                    failed += 1
                    errors.extend(op_errors)
                if not traced:
                    latencies.append(elapsed)
            if traced:
                traced_results.extend(results)
        index += 1
        # Start another round only while it is projected to end in time.
        if timed[False] + timed[True] + group > seconds:
            break

    rate = ops_done[False] / timed[False]
    record = {
        "samples": {"latency_s": latencies, "setup_s": setup_times},
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "rounds": index,
    }
    tail = stats.tail_percentile(latencies)
    record["latency_tail"] = (
        {"percentile": tail[0], "ms": 1000.0 * tail[1], "n": len(latencies)} if tail else None
    )
    if trace:
        traced_rate = ops_done[True] / timed[True]
        layers = layer_metrics(recorder, traced_results)
        layers["trace.overhead_frac"] = (1.0 - traced_rate / rate, "ratio")
        layers["simulation.generate_ms"] = (1000.0 * generate_s, "ms")
        layers["atoms.count"] = (refcheck.atom_count(codes), "count")
        record["metrics"] = layers
        record["spans"] = recorder.spans
    else:
        record["metrics"] = {
            "setup_s": (statistics.median(setup_times), "s"),
            "audits_per_s": (rate, "1/s"),
            "capacity_jobs_per_s": (rate, "1/s"),
            "latency_p50_ms": (1000.0 * stats.harrell_davis(latencies, 50), "ms"),
            "latency_p90_ms": (1000.0 * stats.harrell_davis(latencies, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    return record
