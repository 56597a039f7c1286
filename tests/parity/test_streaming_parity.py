"""Streaming parity: incremental audits vs fresh batch audits.

(Consolidated here from ``tests/test_streaming.py`` — the store builders
and table helpers live in ``tests/parity/conftest.py``.)

The load-bearing property: after ANY interleaving of add/remove/
update_score mutations, a streaming re-audit is bit-identical — same
unfairness float, same groups, same true group sizes — to a fresh batch
audit of the frozen final population.
"""

from __future__ import annotations

import pytest

from repro.engine.streaming import StreamingAuditor

from tests.parity.conftest import (
    batch_audit,
    group_table,
    mutate,
    report_table,
    small_store,
)

STREAMING_ALGORITHMS = ("balanced", "unbalanced")
STREAMING_METRICS = ("emd", "js", "tv")


@pytest.mark.parametrize("algorithm", STREAMING_ALGORITHMS)
@pytest.mark.parametrize("metric", STREAMING_METRICS)
def test_interleaving_then_audit_equals_fresh_batch(
    algorithm: str, metric: str
) -> None:
    store = small_store(seed=1)
    auditor = StreamingAuditor(store, algorithm=algorithm, metric=metric, seed=0)
    for round_seed in (21, 22, 23):
        mutate(store, seed=round_seed, count=70)
        report = auditor.audit()
        result = batch_audit(store, algorithm=algorithm, metric=metric)
        assert report.unfairness == result.unfairness
        assert report_table(report) == group_table(result)
        assert report.population_size == store.size


def test_size_weighting_bit_identical() -> None:
    store = small_store(seed=2)
    mutate(store, seed=31, count=120)
    auditor = StreamingAuditor(
        store, algorithm="balanced", metric="emd", weighting="size", seed=0
    )
    report = auditor.audit()
    result = batch_audit(store, weighting="size")
    assert report.unfairness == result.unfairness
