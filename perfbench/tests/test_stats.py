import numpy as np
import pytest

from perfbench import stats


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 100, 1001):
        values = rng.exponential(size=n).tolist()
        for q in (0, 10, 50, 90, 99, 100):
            assert stats.percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_harrell_davis_matches_scipy_and_stays_in_range():
    from scipy.stats.mstats import hdquantiles

    rng = np.random.default_rng(1)
    for n in (2, 7, 40, 301):
        values = rng.exponential(size=n).tolist()
        for q in (10, 50, 90):
            got = stats.harrell_davis(values, q)
            assert got == pytest.approx(float(hdquantiles(values, prob=[q / 100.0])[0]))
            assert min(values) <= got <= max(values)
    assert stats.harrell_davis([4.5], 50) == pytest.approx(4.5)
    assert stats.harrell_davis([3.0] * 9, 50) == pytest.approx(3.0)
    # Symmetric samples have their centre as the median estimate.
    assert stats.harrell_davis([1.0, 2.0, 10.0, 11.0], 50) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        stats.harrell_davis([], 50)


def test_samples_beyond_counts_ranks_above_the_percentile():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(99, 90) == 10
    assert stats.samples_beyond(50, 90) == 5


@pytest.mark.parametrize(
    "n, q",
    [(15, None), (19, None), (20, 50.0), (85, 50.0), (92, 90.0), (500, 90.0), (1000, 99.0),
     (10000, 99.9)],
)
def test_tail_percentile_picks_highest_with_ten_beyond(n, q):
    values = list(range(n))
    tail = stats.tail_percentile(values)
    if q is None:
        assert tail is None
    else:
        assert tail[0] == q
        assert tail[1] == stats.percentile(values, q)
        assert sum(1 for v in values if v > tail[1]) >= 10


def test_spread_is_iqr_over_median():
    values = [10, 11, 9, 10, 12, 8, 10, 10, 11, 9]
    q1, _, q3 = __import__("statistics").quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 10)


def test_verdicts():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [v * 0.8 for v in parent]
    assert stats.verdict(parent, faster, "lower", 0.1) == "improved"
    assert stats.verdict(parent, faster, "higher", 0.1) == "regressed"
    assert stats.verdict(parent, list(parent), "lower", 0.1) == "unchanged"
    # Nine in ten wins but a gain inside the parent's own spread is no gain.
    noisy = [50, 150, 60, 140, 100, 100, 70, 130, 90, 110]
    nudged = [v - 1 for v in noisy]
    assert stats.verdict(noisy, nudged, "lower", 0.7) == "unchanged"
    # Spread wider than the bound and no clean separation: unresolved.
    assert stats.verdict(noisy, list(noisy), "lower", 0.1) == "unresolved"
    with pytest.raises(ValueError):
        stats.verdict(parent, parent[:3], "lower", 0.1)
