"""Output checks computed by the benchmark itself.

Nothing here calls the library's evaluator: partition codes, score
histograms and the average pairwise EMD are recomputed from the raw
population columns and the returned member sets.  The only library objects
read are the inputs (population columns, score vector) and the result under
test.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

#: Tolerance between the reported and the recomputed unfairness.
UNFAIRNESS_TOL = 1e-9

#: Tolerance between the library's scores and the benchmark's own.
SCORE_TOL = 1e-12

#: alpha of each paper function f = alpha * language_test + (1 - alpha) * approval_rate.
PAPER_ALPHAS = {"f1": 0.5, "f2": 0.3, "f3": 0.7, "f4": 1.0, "f5": 0.0}


def bin_indices(scores: np.ndarray, bins: int = 10, low: float = 0.0, high: float = 1.0):
    """Equal-width bin of every score in [low, high]; ``high`` lands in the last bin."""
    width = (high - low) / bins
    idx = np.floor((np.asarray(scores, dtype=np.float64) - low) / width).astype(np.int64)
    return np.minimum(idx, bins - 1)


def average_emd(pmfs: np.ndarray, bin_width: float) -> float:
    """Mean 1-D EMD over all unordered pairs of histogram rows, in closed form.

    EMD(p, q) = bin_width * sum_b |CDF_p(b) - CDF_q(b)|, and for one column
    x sorted ascending, sum_{i<j} |x_i - x_j| = sum_i x_i * (2i - k + 1).
    """
    k = pmfs.shape[0]
    if k < 2:
        return 0.0
    cdfs = np.sort(np.cumsum(pmfs, axis=1), axis=0)
    coeff = 2.0 * np.arange(k) - (k - 1)
    total = float(np.sum(coeff @ cdfs))
    return bin_width * total / (k * (k - 1) / 2.0)


def protected_codes(population) -> "dict[str, np.ndarray]":
    """Partition code of every worker on every protected attribute.

    Categorical columns already hold codes; integer columns are cut into
    ``buckets`` equal-width integer-aligned buckets over [low, high].
    """
    codes = {}
    for attr in population.schema.protected:
        raw = np.asarray(population.protected_column(attr.name), dtype=np.int64)
        if hasattr(attr, "buckets"):
            span = attr.high + 1 - attr.low
            codes[attr.name] = (raw - attr.low) * attr.buckets // span
        else:
            codes[attr.name] = raw
    return codes


def paper_scores(population, function: str) -> np.ndarray:
    """The paper's linear score f = alpha*b1 + (1-alpha)*b2 on min-max normalised columns."""
    alpha = PAPER_ALPHAS[function]
    out = np.zeros(population.size, dtype=np.float64)
    for name, weight in (("language_test", alpha), ("approval_rate", 1.0 - alpha)):
        if weight:
            out += weight * (population.observed_column(name) - 25.0) / 75.0
    return out


def check_scores(population, function: str, scores) -> "list[str]":
    """The library's score vector must equal the paper's formula."""
    expected = paper_scores(population, function)
    diff = float(np.max(np.abs(expected - np.asarray(scores, dtype=np.float64))))
    if diff > SCORE_TOL:
        return [f"scores of {function} differ from the paper formula by {diff:.3g}"]
    return []


def check_partitioning(codes, partitions, n: int) -> "list[str]":
    """A disjoint cover of ``range(n)`` whose every part is exactly the set of
    workers matching its conjunction of (attribute, code) constraints."""
    errors = []
    if not partitions:
        return ["empty partitioning"]
    combined = np.sort(np.concatenate([p.indices for p in partitions]))
    if combined.size != n or not np.array_equal(combined, np.arange(n)):
        errors.append("partitions are not a disjoint cover of the population")
    groups: "dict[tuple[str, ...], list]" = {}
    for p in partitions:
        names = tuple(name for name, _ in p.constraints)
        if p.indices.size == 0:
            errors.append("empty partition")
        if len(set(names)) != len(names) or not set(names) <= set(codes):
            errors.append(f"bad constraint attributes {names}")
            continue
        for name, code in p.constraints:
            if not np.all(codes[name][p.indices] == code):
                errors.append(f"member outside its constraint {name}={code}")
                break
        groups.setdefault(tuple(sorted(names)), []).append(p)
    # Members satisfy their constraints; each part must also hold *every*
    # worker that does, so its size equals the constraint's match count.
    for names, parts in groups.items():
        radices = [int(codes[name].max()) + 1 for name in names]
        key = np.zeros(n, dtype=np.int64)
        for name, radix in zip(names, radices):
            key = key * radix + codes[name]
        counts = np.bincount(key, minlength=int(np.prod(radices)))
        for p in parts:
            want = dict(p.constraints)
            if any(not 0 <= want[name] < radix for name, radix in zip(names, radices)):
                errors.append(f"constraint code out of range in {p.constraints}")
                break
            cell = 0
            for name, radix in zip(names, radices):
                cell = cell * radix + want[name]
            if int(counts[cell]) != p.indices.size:
                errors.append(
                    f"partition {p.constraints} holds {p.indices.size} of "
                    f"{int(counts[cell])} matching workers"
                )
                break
    return errors


def unfairness_from_members(scores, partitions, bins: int = 10) -> float:
    """Average pairwise EMD of the parts' score histograms (scores in [0, 1])."""
    n = len(scores)
    labels = np.empty(n, dtype=np.int64)
    for j, p in enumerate(partitions):
        labels[p.indices] = j
    k = len(partitions)
    counts = np.bincount(
        labels * bins + bin_indices(scores, bins), minlength=k * bins
    ).reshape(k, bins)
    sizes = counts.sum(axis=1)
    return average_emd(counts / sizes[:, None], 1.0 / bins)


def check_result(codes, scores, result) -> "list[str]":
    """All checks on one :class:`AlgorithmResult`."""
    partitions = result.partitioning.partitions
    errors = check_partitioning(codes, partitions, len(scores))
    if errors:
        return errors
    recomputed = unfairness_from_members(scores, partitions)
    if abs(recomputed - result.unfairness) > UNFAIRNESS_TOL:
        errors.append(
            f"reported unfairness {result.unfairness!r} != recomputed {recomputed!r}"
        )
    return errors


def partitioning_digest(partitions) -> str:
    """Order-free digest of a partitioning's constraint sets."""
    keys = sorted(json.dumps(sorted(p.constraints)) for p in partitions)
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]


def atom_count(codes) -> int:
    """Number of populated atoms: distinct code tuples over all protected attributes."""
    key = np.zeros(len(next(iter(codes.values()))), dtype=np.int64)
    for column in codes.values():
        key = key * (int(column.max()) + 1) + column
    return int(np.unique(key).size)
