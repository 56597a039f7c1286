"""The differential parity matrix: every kernel backend × metric ×
weighting × algorithm, bit-identical to the scalar reference.

A fast sub-matrix runs in tier-1 (kernel × metric on the small seeded
population); the full combinatorial sweep carries the ``parity`` marker and
runs in the dedicated ``kernel-parity`` CI job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.partition import Partition
from repro.engine.engine import EvaluationEngine
from repro.engine.kernels import (
    KERNEL_BACKENDS,
    KERNEL_COUNTER_KEYS,
    resolve_kernel_backend,
)
from repro.exceptions import KernelError
from repro.metrics import available_metrics

from tests.parity.conftest import (
    PARITY_CASES,
    assert_results_identical,
    build_scores,
    result_digest,
    run_audit,
)

METRICS = tuple(available_metrics())
WEIGHTINGS = ("uniform", "size")
ALGORITHMS = ("balanced", "unbalanced")


@pytest.fixture(scope="session")
def reference_run(parity_populations):
    """Memoised scalar-reference results, keyed by matrix cell."""
    cache: dict = {}

    def get(case, metric, weighting, algorithm):
        key = (case, metric, weighting, algorithm)
        if key not in cache:
            population = parity_populations[case[0]]
            scores = build_scores(population, case[1])
            cache[key] = run_audit(
                population,
                scores,
                algorithm,
                metric=metric,
                weighting=weighting,
                kernel="scalar",
            )
        return cache[key]

    return get


# ------------------------------------------------------------ fast sub-matrix
# Runs in tier-1: every kernel on every metric, one seeded population.


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("kernel", KERNEL_BACKENDS)
def test_kernel_backends_bit_identical(
    parity_populations, reference_run, kernel, metric
) -> None:
    case = ("small", 11)
    population = parity_populations[case[0]]
    scores = build_scores(population, case[1])
    result = run_audit(population, scores, metric=metric, kernel=kernel)
    assert_results_identical(result, reference_run(case, metric, "uniform", "balanced"))


def test_kernel_resolution_errors() -> None:
    assert resolve_kernel_backend(None) == "numpy"
    for retired in ("bogus", "numba"):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            resolve_kernel_backend(retired)


def test_value_cache_keys_and_counters_identical_across_kernels(
    parity_populations,
) -> None:
    """Two engines differing only in kernel backend leave behind the same
    content-addressed value-cache keys, the same cached values, and the
    same kernel effort counters — the invariant that lets the cross-job
    cache omit the backend from its keys."""
    population = parity_populations["small"]
    scores = build_scores(population, 11)
    exports = {}
    counters = {}
    def split(attribute: str) -> list:
        codes = population.partition_codes(attribute)
        return [
            Partition(np.nonzero(codes == value)[0])
            for value in np.unique(codes)
        ]

    for kernel in KERNEL_BACKENDS:
        engine = EvaluationEngine(population, scores, kernel=kernel)
        for partitions in (split("gender"), split("country")):
            engine.unfairness(partitions)
        exports[kernel] = engine.export_value_cache()
        counters[kernel] = {
            key: engine.kernel_counters().get(key, 0)
            for key in KERNEL_COUNTER_KEYS
        }
        engine.close()
    reference = exports["scalar"]
    for kernel, exported in exports.items():
        assert set(exported) == set(reference)
        for key, value in exported.items():
            assert value == reference[key], kernel
    assert counters["numpy"] == counters["scalar"]


# ------------------------------------------------------------- full matrix
# The exhaustive sweep: marked ``parity`` so tier-1 stays fast.


@pytest.mark.parity
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("kernel", KERNEL_BACKENDS)
def test_full_matrix_bit_identical(
    parity_populations, reference_run, kernel, metric, weighting, algorithm
) -> None:
    case = ("small", 11)
    population = parity_populations[case[0]]
    scores = build_scores(population, case[1])
    result = run_audit(
        population,
        scores,
        algorithm,
        metric=metric,
        weighting=weighting,
        kernel=kernel,
    )
    # Full identity (value, partitioning, effort counters, digest) against
    # the scalar reference.
    assert_results_identical(
        result, reference_run(case, metric, weighting, algorithm)
    )


@pytest.mark.parity
@pytest.mark.parametrize("case", PARITY_CASES, ids=lambda c: c[0])
@pytest.mark.parametrize("kernel", KERNEL_BACKENDS)
def test_all_scenarios_bit_identical(
    parity_populations, reference_run, kernel, case
) -> None:
    """Every seeded scenario of the matrix, reference vs selected kernel."""
    population = parity_populations[case[0]]
    scores = build_scores(population, case[1])
    result = run_audit(population, scores, kernel=kernel)
    reference = reference_run(case, "emd", "uniform", "balanced")
    assert result_digest(result) == result_digest(reference)
    # Tie-breaks are pinned by the canonical key inside the digest; spell
    # the headline float out too so a failure names the drift directly.
    assert result.unfairness == reference.unfairness
    assert np.array_equal(
        np.sort([p.size for p in result.partitioning]),
        np.sort([p.size for p in reference.partitioning]),
    )
