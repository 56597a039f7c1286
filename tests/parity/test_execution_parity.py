"""Execution-path parity: atoms vs member arrays.  (Consolidated here
from ``tests/test_atoms.py`` and ``tests/test_engine.py`` — the shared
scenario matrix and digest helpers live in ``tests/parity/conftest.py``.)
"""

from __future__ import annotations

import pytest

from tests.parity.conftest import build_scores, run_audit


@pytest.mark.parametrize("algorithm", ["balanced", "unbalanced", "beam"])
@pytest.mark.parametrize("weighting", ["uniform", "size"])
def test_atom_and_member_paths_bit_identical(
    parity_populations, algorithm: str, weighting: str
) -> None:
    """Same unfairness, same partitioning, same *counters*: the atom path is
    a different route through the same arithmetic, not a different model."""
    population = parity_populations["paper300"]
    scores = build_scores(population, 11)
    atom = run_audit(
        population, scores, algorithm, weighting=weighting, use_atoms=True
    )
    member = run_audit(
        population, scores, algorithm, weighting=weighting, use_atoms=False
    )
    assert atom.unfairness == member.unfairness
    assert atom.partitioning.canonical_key() == member.partitioning.canonical_key()
    assert atom.n_evaluations == member.n_evaluations
    assert atom.cache_hits == member.cache_hits
    assert atom.n_full_evaluations == member.n_full_evaluations
    assert atom.n_incremental_evaluations == member.n_incremental_evaluations
