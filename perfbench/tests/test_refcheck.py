import itertools
import types

import numpy as np
import pytest
from scipy.stats import wasserstein_distance

from perfbench import refcheck


def _random_pmfs(rng, k, bins):
    counts = rng.integers(0, 20, size=(k, bins)).astype(float)
    counts[:, 0] += 1  # no empty histogram
    return counts / counts.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("k, bins", [(2, 10), (7, 10), (30, 5), (3, 1)])
def test_average_emd_matches_scipy_wasserstein(k, bins):
    rng = np.random.default_rng(k * 100 + bins)
    pmfs = _random_pmfs(rng, k, bins)
    width = 1.0 / bins
    centers = (np.arange(bins) + 0.5) * width
    pairs = [
        wasserstein_distance(centers, centers, pmfs[i], pmfs[j])
        for i, j in itertools.combinations(range(k), 2)
    ]
    assert refcheck.average_emd(pmfs, width) == pytest.approx(np.mean(pairs), abs=1e-12)


def test_average_emd_of_fewer_than_two_histograms_is_zero():
    assert refcheck.average_emd(np.ones((1, 4)) / 4, 0.25) == 0.0


def test_bin_indices_put_the_top_score_in_the_last_bin():
    assert refcheck.bin_indices(np.array([0.0, 0.05, 0.1, 0.99, 1.0])).tolist() == [0, 0, 1, 9, 9]


def _part(indices, constraints):
    return types.SimpleNamespace(indices=np.asarray(indices), constraints=tuple(constraints))


def test_check_partitioning():
    codes = {"g": np.array([0, 0, 1, 1, 1]), "c": np.array([0, 1, 0, 1, 2])}
    good = [_part([0, 1], [("g", 0)]), _part([2], [("g", 1), ("c", 0)]),
            _part([3, 4], [("g", 1)])]
    # g=1 matches 3 workers, but one of them sits elsewhere.
    assert refcheck.check_partitioning(codes, good, 5)
    exact = [_part([0, 1], [("g", 0)]), _part([2, 3, 4], [("g", 1)])]
    assert refcheck.check_partitioning(codes, exact, 5) == []
    overlap = [_part([0, 1], [("g", 0)]), _part([1, 2, 3, 4], [("g", 1)])]
    assert refcheck.check_partitioning(codes, overlap, 5)
    wrong = [_part([0, 2], [("g", 0)]), _part([1, 3, 4], [("g", 1)])]
    assert refcheck.check_partitioning(codes, wrong, 5)
    assert refcheck.check_partitioning(codes, [_part(range(5), [])], 5) == []
    assert refcheck.check_partitioning(codes, [_part(range(5), [("g", 7)])], 5)


def test_unfairness_from_members():
    scores = np.array([0.05, 0.05, 0.95, 0.95])
    parts = [_part([0, 1], []), _part([2, 3], [])]
    # Two point masses nine bins apart.
    assert refcheck.unfairness_from_members(scores, parts) == pytest.approx(0.9)
