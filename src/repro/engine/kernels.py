"""Pluggable pairwise/cross distance kernels over histogram matrices.

The search algorithms spend essentially all of their time asking "how far
apart are these score histograms?".  The seed code answered that one pair at
a time through :meth:`HistogramDistance.distance` (except for the EMD
average, which has a closed-form fast path).  This module batches the
question — all candidate histograms of one greedy step are stacked into a
single ``(c, bins)`` matrix and a whole ``(c, k)`` block of distances is
produced per call — and makes the *implementation* of that block a pluggable
**kernel backend**:

``numpy`` (default)
    The fused broadcast kernels: one vectorised NumPy expression per metric.
``scalar``
    The differential reference: a per-unique-pair Python loop over 1-D
    mirrors of the fused kernels, sharing their exact dtype and order of
    operations.  Slow, but the ground truth the parity harness compares
    every other backend against bit-for-bit.

Two entry points:

* :func:`cross_matrix` — distances between every row of ``left`` and every
  row of ``right``, shape ``(nl, nr)``.
* :func:`pairwise_matrix` — the dense symmetric ``(k, k)`` matrix for one
  stack of histograms.

Both entry points hoist unique-row deduplication: candidate stacks are full
of repeated histograms (sibling partitions recur across candidates), so each
*distinct* row pair is computed once and the unique-block result broadcast
back out with ``np.ix_``.  Every output element is a pure function of its
row pair, so dedup + scatter is bit-identical to the dense computation (the
parity suite pins this with exact equality, and a counter-based regression
test pins that duplicate pairs are never rescanned).  Dedup is *applied*
only when it can pay for itself — see :data:`DEDUP_MIN_PAIRS_PER_ROW`; the
gate is a pure function of the metric and the block shape, never of the
kernel backend, so backends stay bit-identical, effort counters included.

Metrics without a registered kernel (e.g. the LP-based ``emd-t``) fall back
to a ``metric.distance`` loop over the same deduplicated pairs on every
backend, so the engine works with *every* registered metric and backends
still agree exactly.
"""

from __future__ import annotations

from typing import Callable, MutableMapping

import numpy as np

from repro.core.histogram import HistogramSpec
from repro.exceptions import KernelError
from repro.metrics.base import HistogramDistance

__all__ = [
    "KERNEL_BACKENDS",
    "DEFAULT_KERNEL",
    "resolve_kernel_backend",
    "cross_matrix",
    "pairwise_matrix",
    "has_vectorized_kernel",
    "average_from_matrix",
    "full_objective",
]

#: Registered kernel backend names, in documentation order.
KERNEL_BACKENDS = ("numpy", "scalar")

#: The backend every caller gets unless asked otherwise.
DEFAULT_KERNEL = "numpy"

#: Counter keys the entry points maintain when handed a ``counters`` mapping.
#: ``pairs_evaluated`` counts distance computations actually performed
#: (unique row pairs); ``pairs_served`` counts output cells delivered; the
#: difference is the work dedup saved.
KERNEL_COUNTER_KEYS = ("invocations", "pairs_evaluated", "pairs_served")

#: Dedup profitability gate: a block is deduplicated only when it holds at
#: least this many pairs per stacked row, i.e. ``l*r >= 64*(l + r)``.  The
#: unique sort costs ~one row comparison per stacked row while the fused
#: kernels cost ~one cheap vectorised cell per pair, so on skinny blocks
#: (one updated pmf against a large frontier, a handful of candidate
#: splits) the sort dwarfs the arithmetic it would save — measured on a
#: ``(1, 10) x (1800, 10)`` EMD cross, ``np.unique`` alone costs ~8x the
#: whole fused block.  Metrics without a vectorized kernel ignore the gate
#: and always dedup: their unit of work is a per-pair Python call (an LP
#: solve for ``emd-t``) that dwarfs the sort at any size.  The gate reads
#: only the metric and the shapes — never the kernel backend — so all
#: backends take the same branch and stay bit-identical, counters included.
DEDUP_MIN_PAIRS_PER_ROW = 64


# --------------------------------------------------------------------------
# numpy backend: fused broadcast kernels (one vectorised call per metric)
# --------------------------------------------------------------------------


def _emd_cross(left: np.ndarray, right: np.ndarray, spec: HistogramSpec) -> np.ndarray:
    lc = np.cumsum(left, axis=1)
    rc = np.cumsum(right, axis=1)
    return spec.bin_width * np.abs(lc[:, None, :] - rc[None, :, :]).sum(axis=2)


def _ks_cross(left: np.ndarray, right: np.ndarray, spec: HistogramSpec) -> np.ndarray:
    lc = np.cumsum(left, axis=1)
    rc = np.cumsum(right, axis=1)
    return np.abs(lc[:, None, :] - rc[None, :, :]).max(axis=2)


def _tv_cross(left: np.ndarray, right: np.ndarray, spec: HistogramSpec) -> np.ndarray:
    return 0.5 * np.abs(left[:, None, :] - right[None, :, :]).sum(axis=2)


def _hellinger_cross(
    left: np.ndarray, right: np.ndarray, spec: HistogramSpec
) -> np.ndarray:
    diff = np.sqrt(left)[:, None, :] - np.sqrt(right)[None, :, :]
    return np.sqrt(0.5 * (diff**2).sum(axis=2))


def _js_cross(left: np.ndarray, right: np.ndarray, spec: HistogramSpec) -> np.ndarray:
    # sqrt(JS divergence) with base-2 logs, matching JensenShannonDistance.
    # The mixture m = (p + q) / 2 is positive wherever p or q is, so the
    # 0·log(0) = 0 convention is the only special case to handle.
    p = left[:, None, :]
    q = right[None, :, :]
    m = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_p = np.where(p > 0, p * np.log2(np.where(p > 0, p / m, 1.0)), 0.0)
        kl_q = np.where(q > 0, q * np.log2(np.where(q > 0, q / m, 1.0)), 0.0)
    divergence = 0.5 * kl_p.sum(axis=2) + 0.5 * kl_q.sum(axis=2)
    return np.sqrt(np.maximum(divergence, 0.0))


_CROSS_KERNELS: dict[str, Callable[[np.ndarray, np.ndarray, HistogramSpec], np.ndarray]] = {
    "emd": _emd_cross,
    "ks": _ks_cross,
    "tv": _tv_cross,
    "hellinger": _hellinger_cross,
    "js": _js_cross,
}


# --------------------------------------------------------------------------
# scalar backend: 1-D mirrors of the fused kernels (the parity reference)
# --------------------------------------------------------------------------
#
# These are NOT the metrics' public ``distance`` implementations: e.g.
# ``emd()`` computes ``cumsum(p - q)`` while the fused kernel computes
# ``cumsum(p) - cumsum(q)``, which can differ in the last ulp.  The parity
# contract is against the *kernel* arithmetic, so the reference mirrors the
# fused expressions element-for-element on one pair at a time.


def _emd_ref(p: np.ndarray, q: np.ndarray, spec: HistogramSpec) -> float:
    return float(spec.bin_width * np.abs(np.cumsum(p) - np.cumsum(q)).sum())


def _ks_ref(p: np.ndarray, q: np.ndarray, spec: HistogramSpec) -> float:
    return float(np.abs(np.cumsum(p) - np.cumsum(q)).max())


def _tv_ref(p: np.ndarray, q: np.ndarray, spec: HistogramSpec) -> float:
    return float(0.5 * np.abs(p - q).sum())


def _hellinger_ref(p: np.ndarray, q: np.ndarray, spec: HistogramSpec) -> float:
    diff = np.sqrt(p) - np.sqrt(q)
    return float(np.sqrt(0.5 * (diff**2).sum()))


def _js_ref(p: np.ndarray, q: np.ndarray, spec: HistogramSpec) -> float:
    m = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_p = np.where(p > 0, p * np.log2(np.where(p > 0, p / m, 1.0)), 0.0)
        kl_q = np.where(q > 0, q * np.log2(np.where(q > 0, q / m, 1.0)), 0.0)
    divergence = 0.5 * kl_p.sum() + 0.5 * kl_q.sum()
    return float(np.sqrt(np.maximum(divergence, 0.0)))


_REF_KERNELS: dict[str, Callable[[np.ndarray, np.ndarray, HistogramSpec], float]] = {
    "emd": _emd_ref,
    "ks": _ks_ref,
    "tv": _tv_ref,
    "hellinger": _hellinger_ref,
    "js": _js_ref,
}


# --------------------------------------------------------------------------
# backend registry and resolution
# --------------------------------------------------------------------------


def resolve_kernel_backend(kernel: "str | None") -> str:
    """Validate a kernel backend name (``None`` → the default).

    Raises :class:`~repro.exceptions.KernelError` for unknown names.
    """
    if kernel is None:
        return DEFAULT_KERNEL
    if kernel not in KERNEL_BACKENDS:
        raise KernelError(
            f"unknown kernel backend {kernel!r}; registered: {KERNEL_BACKENDS}"
        )
    return kernel


def has_vectorized_kernel(metric: HistogramDistance) -> bool:
    """True when ``metric`` has a batched kernel (vs a ``distance`` loop)."""
    return metric.name in _CROSS_KERNELS


def _bump(
    counters: "MutableMapping[str, int] | None", key: str, amount: int
) -> None:
    if counters is not None and amount:
        counters[key] = counters.get(key, 0) + amount


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


def _unique_rows(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    unique, inverse = np.unique(block, axis=0, return_inverse=True)
    return unique, np.asarray(inverse).reshape(-1)


def _should_dedup(metric: HistogramDistance, n_left: int, n_right: int) -> bool:
    """Whether the unique-row sort is worth its cost for this block (see
    :data:`DEDUP_MIN_PAIRS_PER_ROW`); pure in (metric, shapes) so every
    kernel backend takes the same branch."""
    if metric.name not in _CROSS_KERNELS:
        return True
    return n_left * n_right >= DEDUP_MIN_PAIRS_PER_ROW * (n_left + n_right)


def _cross_block(
    metric: HistogramDistance,
    left_u: np.ndarray,
    right_u: np.ndarray,
    spec: HistogramSpec,
    kernel: str,
) -> "np.ndarray | None":
    """Distance block over *unique* rows, or ``None`` for loop-fallback metrics."""
    if metric.name not in _CROSS_KERNELS:
        return None
    if kernel == "numpy":
        return _CROSS_KERNELS[metric.name](left_u, right_u, spec)
    if kernel == "scalar":
        ref = _REF_KERNELS[metric.name]
        out = np.empty((left_u.shape[0], right_u.shape[0]), dtype=np.float64)
        for i in range(left_u.shape[0]):
            for j in range(right_u.shape[0]):
                out[i, j] = ref(left_u[i], right_u[j], spec)
        return out
    raise KernelError(
        f"unknown kernel backend {kernel!r}; registered: {KERNEL_BACKENDS}"
    )


def cross_matrix(
    metric: HistogramDistance,
    left: np.ndarray,
    right: np.ndarray,
    spec: HistogramSpec,
    *,
    kernel: str = DEFAULT_KERNEL,
    counters: "MutableMapping[str, int] | None" = None,
) -> np.ndarray:
    """``(nl, nr)`` matrix of distances between rows of ``left`` and ``right``.

    Dedups unique rows up front (on every backend — the hoisted form of the
    old scalar-fallback dedup) when the block is large enough to repay the
    sort (:func:`_should_dedup`), computes the unique block with the
    selected kernel backend, and scatters the block back out.
    """
    left = np.atleast_2d(np.asarray(left, dtype=np.float64))
    right = np.atleast_2d(np.asarray(right, dtype=np.float64))
    if left.shape[0] == 0 or right.shape[0] == 0:
        return np.zeros((left.shape[0], right.shape[0]), dtype=np.float64)
    _bump(counters, "invocations", 1)
    _bump(counters, "pairs_served", left.shape[0] * right.shape[0])
    dedup = _should_dedup(metric, left.shape[0], right.shape[0])
    left_u, left_inv = _unique_rows(left) if dedup else (left, None)
    right_u, right_inv = _unique_rows(right) if dedup else (right, None)
    out_u = _cross_block(metric, left_u, right_u, spec, kernel)
    if out_u is None:
        # Metrics without a batched kernel (e.g. the LP-based emd-t): one
        # metric.distance call per distinct row pair, identical on every
        # backend.  (``_should_dedup`` always dedups these, so the loop
        # only ever runs over unique rows.)
        out_u = np.zeros((left_u.shape[0], right_u.shape[0]), dtype=np.float64)
        for i in range(left_u.shape[0]):
            for j in range(right_u.shape[0]):
                out_u[i, j] = metric.distance(left_u[i], right_u[j], spec)
    _bump(counters, "pairs_evaluated", left_u.shape[0] * right_u.shape[0])
    if not dedup:
        return out_u
    return out_u[np.ix_(left_inv, right_inv)]


def pairwise_matrix(
    metric: HistogramDistance,
    pmfs: np.ndarray,
    spec: HistogramSpec,
    *,
    kernel: str = DEFAULT_KERNEL,
    counters: "MutableMapping[str, int] | None" = None,
) -> np.ndarray:
    """Dense symmetric ``(k, k)`` distance matrix for one histogram stack.

    Like :func:`cross_matrix`, dedups unique rows before computing (when
    the stack is large enough to repay the sort): the old scalar path
    rescanned duplicate atom pairs once per occurrence, which is exactly
    the PR-4 inefficiency the hoisted dedup removes (pinned by a
    counter-based regression test in ``tests/parity``).
    """
    pmfs = np.atleast_2d(np.asarray(pmfs, dtype=np.float64))
    k = pmfs.shape[0]
    if k == 0:
        return np.zeros((0, 0), dtype=np.float64)
    _bump(counters, "invocations", 1)
    _bump(counters, "pairs_served", k * k)
    dedup = _should_dedup(metric, k, k)
    unique, inverse = _unique_rows(pmfs) if dedup else (pmfs, None)
    u = unique.shape[0]
    out_u = _cross_block(metric, unique, unique, spec, kernel)
    if out_u is not None:
        _bump(counters, "pairs_evaluated", u * u)
        # The kernels are exactly symmetric in exact arithmetic but can
        # differ in the last ulp; symmetrise so downstream sums are stable.
        # (Scatter of the symmetrised unique block == symmetrisation of the
        # scattered dense matrix, elementwise.)
        np.fill_diagonal(out_u, 0.0)
        out_u = 0.5 * (out_u + out_u.T)
        if not dedup:
            return out_u
        return out_u[np.ix_(inverse, inverse)]
    counts = np.bincount(inverse, minlength=u)
    out_u = np.zeros((u, u), dtype=np.float64)
    evaluated = 0
    for i in range(u):
        # A unique row that occurs more than once pairs with itself in the
        # dense matrix (off-diagonal duplicate cells), so its self-distance
        # is needed; singleton rows only hit the (zeroed) diagonal.
        if counts[i] > 1:
            out_u[i, i] = metric.distance(unique[i], unique[i], spec)
            evaluated += 1
        for j in range(i + 1, u):
            out_u[i, j] = out_u[j, i] = metric.distance(unique[i], unique[j], spec)
            evaluated += 1
    _bump(counters, "pairs_evaluated", evaluated)
    out = out_u[np.ix_(inverse, inverse)]
    np.fill_diagonal(out, 0.0)
    return out


def average_from_matrix(
    matrix: np.ndarray, weights: np.ndarray | None = None
) -> float:
    """(Weighted) average over the unordered pairs of a symmetric distance
    matrix with a zero diagonal.

    Pair {i, j} carries weight ``weights[i] * weights[j]`` when weights are
    given (the size-weighted objective variant); returns 0.0 for fewer than
    two rows or degenerate weights.
    """
    k = matrix.shape[0]
    if k < 2:
        return 0.0
    if weights is None:
        return float(matrix.sum() / (k * (k - 1)))
    w = np.asarray(weights, dtype=np.float64)
    weight_pairs = (w.sum() ** 2 - np.dot(w, w)) / 2.0
    if weight_pairs <= 0:
        return 0.0
    total = 0.5 * float(w @ matrix @ w)
    return total / weight_pairs


def full_objective(
    metric: HistogramDistance,
    pmfs: np.ndarray,
    spec: HistogramSpec,
    weights: np.ndarray | None = None,
    *,
    kernel: str = DEFAULT_KERNEL,
    counters: "MutableMapping[str, int] | None" = None,
) -> tuple[float, int]:
    """Average pairwise distance of a histogram stack, computed from scratch.

    This is the one shared "full evaluation" code path: the sequential
    engine, the process-pool workers and the incremental objective's
    reference all call it, which is what keeps backend results
    bit-identical.  Returns ``(value, pairs_materialized)`` where the second
    element counts the individual pairwise distances actually computed —
    0 for metrics with a closed-form average (EMD's sorted-prefix-sum path
    never materialises a single pair).

    Closed-form ``average_pairwise`` overrides are preferred on *every*
    kernel backend, so the algorithm-level objective stays bit-identical
    across backends by construction (the kernels only decide how the dense
    matrices, cross blocks, and override-less averages are produced).
    """
    pmfs = np.atleast_2d(np.asarray(pmfs, dtype=np.float64))
    k = pmfs.shape[0]
    if k < 2:
        return 0.0, 0
    overrides_average = (
        type(metric).average_pairwise is not HistogramDistance.average_pairwise
    )
    if overrides_average:
        return float(metric.average_pairwise(pmfs, spec, weights)), 0
    n_pairs = k * (k - 1) // 2
    if has_vectorized_kernel(metric):
        matrix = pairwise_matrix(metric, pmfs, spec, kernel=kernel, counters=counters)
        return average_from_matrix(matrix, weights), n_pairs
    return float(metric.average_pairwise(pmfs, spec, weights)), n_pairs
