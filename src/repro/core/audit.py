"""High-level fairness auditing API.

:class:`FairnessAuditor` is the one-stop entry point a platform operator or
requester would use: give it the worker population, hand it a scoring
function (or raw scores), and it returns the most unfair partitioning a
chosen algorithm can find, wrapped in an :class:`AuditReport` that explains
*which* demographic groups the function treats differently and by how much.

    >>> auditor = FairnessAuditor(population)
    >>> report = auditor.audit(scoring_function)          # doctest: +SKIP
    >>> print(report.render())                            # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.algorithms import AlgorithmResult, get_algorithm
from repro.core.histogram import HistogramSpec
from repro.core.partition import Partition
from repro.core.population import Population
from repro.core.tree import build_split_tree, render_split_tree
from repro.core.unfairness import UnfairnessEvaluator
from repro.metrics.base import HistogramDistance

__all__ = ["FairnessAuditor", "AuditReport", "GroupSummary"]


@dataclass(frozen=True)
class GroupSummary:
    """Descriptive statistics of one partition found by the audit."""

    label: str
    size: int
    mean_score: float
    median_score: float
    min_score: float
    max_score: float

    def __str__(self) -> str:
        return (
            f"{self.label}: n={self.size}, mean={self.mean_score:.3f}, "
            f"median={self.median_score:.3f}, range=[{self.min_score:.3f}, "
            f"{self.max_score:.3f}]"
        )


@dataclass(frozen=True)
class AuditReport:
    """Everything an audit produced, with rendering helpers."""

    population: Population
    scores: np.ndarray
    result: AlgorithmResult
    groups: tuple[GroupSummary, ...]
    pairwise: np.ndarray

    @property
    def unfairness(self) -> float:
        """The objective value of the returned partitioning."""
        return self.result.unfairness

    def most_separated_pair(self) -> tuple[GroupSummary, GroupSummary, float]:
        """The two groups with the largest pairwise distance."""
        if len(self.groups) < 2:
            raise ValueError("the audit found a single group; no pairs to compare")
        i, j = np.unravel_index(int(np.argmax(self.pairwise)), self.pairwise.shape)
        return self.groups[i], self.groups[j], float(self.pairwise[i, j])

    def render(self, histograms: bool = False) -> str:
        """Multi-line report: headline, per-group stats and the split tree.

        With ``histograms=True``, appends a Figure-1-style ASCII histogram
        per group (largest groups first).
        """
        lines = [
            f"Fairness audit ({self.result.algorithm}, metric={self.result.metric})",
            f"  unfairness     : {self.unfairness:.4f}",
            f"  groups found   : {len(self.groups)}",
            f"  attributes used: "
            f"{', '.join(self.result.partitioning.attributes_used()) or '(none)'}",
            f"  runtime        : {self.result.runtime_seconds:.4f}s",
            "",
            "Groups (largest first):",
        ]
        lines += [f"  {g}" for g in sorted(self.groups, key=lambda g: -g.size)]
        if len(self.groups) >= 2:
            a, b, distance = self.most_separated_pair()
            lines += [
                "",
                f"Most separated pair (distance {distance:.4f}):",
                f"  {a}",
                f"  {b}",
            ]
        lines += [
            "",
            "Split tree:",
            render_split_tree(
                build_split_tree(self.result.partitioning), self.population.schema
            ),
        ]
        if histograms:
            from repro.reporting.histograms import render_partition_histograms

            lines += [
                "",
                "Score histograms:",
                render_partition_histograms(
                    self.population, self.scores, self.result.partitioning
                ),
            ]
        return "\n".join(lines)


class FairnessAuditor:
    """Audits scoring functions over a fixed worker population.

    Parameters
    ----------
    population:
        The workers being ranked.
    hist_spec:
        Score binning (default: 10 equal bins over [0, 1]).
    metric:
        Histogram distance quantifying group separation (default: EMD).
    weighting:
        ``"uniform"`` (the paper's objective) or ``"size"`` (pairs weighted
        by group sizes; damps small-cell sampling noise).
    """

    def __init__(
        self,
        population: Population,
        hist_spec: HistogramSpec | None = None,
        metric: "str | HistogramDistance" = "emd",
        weighting: str = "uniform",
    ) -> None:
        self.population = population
        self.hist_spec = hist_spec or HistogramSpec()
        self.metric = metric
        self.weighting = weighting

    def audit(
        self,
        scoring: "np.ndarray | object",
        algorithm: str = "balanced",
        rng: "np.random.Generator | int | None" = None,
        tracer=None,
        metrics=None,
        deadline=None,
        kernel: "str | None" = None,
        **algorithm_options: object,
    ) -> AuditReport:
        """Find the most unfair partitioning under one scoring function.

        ``scoring`` is either a callable mapping the population to a score
        vector (any :class:`~repro.marketplace.scoring.ScoringFunction`) or a
        precomputed score array.  ``tracer`` / ``metrics`` attach
        observability hooks (see :mod:`repro.obs`); ``deadline`` caps the search
        cooperatively (see :mod:`repro.engine.deadline` — an expired run
        returns a flagged partial result).
        """
        from repro.obs.tracer import NULL_TRACER

        run_tracer = tracer if tracer is not None else NULL_TRACER
        scores = scoring(self.population) if callable(scoring) else np.asarray(scoring)
        with run_tracer.span("audit.search", algorithm=algorithm):
            result = get_algorithm(algorithm, **algorithm_options).run(
                self.population,
                scores,
                hist_spec=self.hist_spec,
                metric=self.metric,
                rng=rng,
                weighting=self.weighting,
                tracer=tracer,
                metrics=metrics,
                deadline=deadline,
                kernel=kernel,
            )
        with run_tracer.span("audit.report", n_groups=result.partitioning.k):
            groups = tuple(
                self._summarise(partition, scores) for partition in result.partitioning
            )
            evaluator = UnfairnessEvaluator(
                self.population, scores, self.hist_spec, self.metric, self.weighting
            )
            pairwise = evaluator.pairwise_matrix(result.partitioning.partitions)
        return AuditReport(
            population=self.population,
            scores=scores,
            result=result,
            groups=groups,
            pairwise=pairwise,
        )

    def audit_task(
        self,
        task: object,
        algorithm: str = "balanced",
        rng: "np.random.Generator | int | None" = None,
        tracer=None,
        metrics=None,
        kernel: "str | None" = None,
        **algorithm_options: object,
    ) -> AuditReport:
        """Audit a task's ranking over the pool its requirements admit.

        Real platforms filter workers on hard requirements before ranking
        (see :class:`repro.marketplace.tasks.Task`); fairness of the shown
        ranking is a property of the *eligible* pool, which is what this
        audits.  The returned report's population is that subpopulation.
        """
        from repro.marketplace.tasks import eligible_workers

        mask = eligible_workers(self.population, task)
        pool = self.population.subset(np.nonzero(mask)[0])
        auditor = FairnessAuditor(pool, self.hist_spec, self.metric, self.weighting)
        return auditor.audit(
            task.scoring,
            algorithm=algorithm,
            rng=rng,
            tracer=tracer,
            metrics=metrics,
            kernel=kernel,
            **algorithm_options,
        )

    def compare_algorithms(
        self,
        scoring: "np.ndarray | object",
        algorithms: "tuple[str, ...] | list[str]",
        rng_seed: int = 0,
        **algorithm_options: object,
    ) -> dict[str, AuditReport]:
        """Audit with several algorithms, one report each (same scores)."""
        scores = scoring(self.population) if callable(scoring) else np.asarray(scoring)
        return {
            name: self.audit(
                scores,
                algorithm=name,
                rng=rng_seed,
                **algorithm_options,
            )
            for name in algorithms
        }

    def _summarise(self, partition: Partition, scores: np.ndarray) -> GroupSummary:
        member_scores = scores[partition.indices]
        return GroupSummary(
            label=partition.label(self.population.schema),
            size=partition.size,
            mean_score=float(member_scores.mean()),
            median_score=float(np.median(member_scores)),
            min_score=float(member_scores.min()),
            max_score=float(member_scores.max()),
        )
