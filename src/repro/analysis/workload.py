"""Workload-level fairness auditing.

A marketplace serves many requesters, each with their own scoring weights —
auditing one function at a time misses the aggregate picture.  This module
audits a whole *task workload* and aggregates: how unfair is the platform on
average across queries, which protected attributes recur in the most unfair
partitionings, and which tasks are the worst offenders.

This is the operational question behind the paper's closing line ("it is up
to the user, requester or platform developer, to decide on the right
subsequent action"): a platform developer acts on workload-level evidence,
not a single query.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.audit import FairnessAuditor
from repro.core.histogram import HistogramSpec
from repro.core.population import Population
from repro.exceptions import ScoringError
from repro.marketplace.tasks import Task
from repro.metrics.base import HistogramDistance

__all__ = ["TaskAudit", "WorkloadAuditSummary", "audit_workload"]


@dataclass(frozen=True)
class TaskAudit:
    """One task's audit outcome within a workload.

    ``repair`` is the mitigation summary
    (:meth:`~repro.repair.RepairResult.as_dict`) when the workload ran with
    a repair strategy, else ``None``.
    """

    task_id: str
    unfairness: float
    n_groups: int
    attributes_used: tuple[str, ...]
    repair: "dict | None" = None


@dataclass(frozen=True)
class WorkloadAuditSummary:
    """Aggregated audit of a task workload."""

    audits: tuple[TaskAudit, ...]
    attribute_frequency: dict[str, int]

    @property
    def mean_unfairness(self) -> float:
        """Average unfairness across the workload's tasks."""
        return float(np.mean([a.unfairness for a in self.audits]))

    @property
    def max_unfairness(self) -> float:
        return float(max(a.unfairness for a in self.audits))

    def worst_task(self) -> TaskAudit:
        """The task whose scoring function is most unfair."""
        return max(self.audits, key=lambda a: a.unfairness)

    def recurring_attributes(self, min_fraction: float = 0.5) -> tuple[str, ...]:
        """Attributes appearing in at least ``min_fraction`` of task audits.

        These are the systematic bias channels a platform developer should
        look at first.
        """
        if not 0.0 < min_fraction <= 1.0:
            raise ScoringError(
                f"min_fraction must be in (0, 1], got {min_fraction}"
            )
        threshold = min_fraction * len(self.audits)
        return tuple(
            sorted(
                attribute
                for attribute, count in self.attribute_frequency.items()
                if count >= threshold
            )
        )

    def render(self) -> str:
        """Multi-line workload report."""
        lines = [
            f"workload audit over {len(self.audits)} tasks",
            f"  mean unfairness: {self.mean_unfairness:.3f}",
            f"  max unfairness : {self.max_unfairness:.3f} "
            f"(task {self.worst_task().task_id!r})",
            "  attribute frequency across most-unfair partitionings:",
        ]
        for attribute, count in sorted(
            self.attribute_frequency.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            lines.append(f"    {attribute}: {count}/{len(self.audits)}")
        repaired = [a for a in self.audits if a.repair is not None]
        if repaired:
            strategy = repaired[0].repair["strategy"]
            lines.append(f"  mitigation ({strategy}):")
            for audit in repaired:
                lines.append(
                    f"    {audit.task_id}: "
                    f"{audit.repair['unfairness_before']:.3f} -> "
                    f"{audit.repair['unfairness_after']:.3f} "
                    f"(ndcg@{audit.repair['k']} {audit.repair['ndcg_at_k']:.3f})"
                )
        return "\n".join(lines)


def audit_workload(
    population: Population,
    tasks: "list[Task] | tuple[Task, ...]",
    algorithm: str = "balanced",
    hist_spec: HistogramSpec | None = None,
    metric: "str | HistogramDistance" = "emd",
    rng: "np.random.Generator | int | None" = None,
    tracer=None,
    metrics=None,
    repair_strategy: "str | None" = None,
    repair_options: "dict | None" = None,
    kernel: "str | None" = None,
) -> WorkloadAuditSummary:
    """Audit every task's scoring function over its eligible worker pool.

    Tasks with hard requirements are audited on the filtered pool their
    ranking actually sees (see :meth:`FairnessAuditor.audit_task`).
    ``tracer`` / ``metrics`` attach observability hooks shared across the
    whole workload (see :mod:`repro.obs`).

    With ``repair_strategy`` set, each task's worst partitioning is also
    repaired (:func:`~repro.repair.repair_ranking` with ``repair_options``
    as keyword arguments) and the summary lands on
    :attr:`TaskAudit.repair`.
    """
    if not tasks:
        raise ScoringError("cannot audit an empty workload")
    auditor = FairnessAuditor(population, hist_spec, metric)
    audits: list[TaskAudit] = []
    frequency: Counter[str] = Counter()
    for task in tasks:
        report = auditor.audit_task(
            task,
            algorithm=algorithm,
            rng=rng,
            tracer=tracer,
            metrics=metrics,
            kernel=kernel,
        )
        attributes = report.result.partitioning.attributes_used()
        frequency.update(attributes)
        repair = None
        if repair_strategy is not None:
            from repro.repair import repair_ranking

            repair = repair_ranking(
                report.population,
                report.scores,
                report.result.partitioning,
                repair_strategy,
                hist_spec=auditor.hist_spec,
                metric=metric,
                **(repair_options or {}),
            ).as_dict()
        audits.append(
            TaskAudit(
                task_id=task.task_id,
                unfairness=report.unfairness,
                n_groups=report.result.partitioning.k,
                attributes_used=attributes,
                repair=repair,
            )
        )
    return WorkloadAuditSummary(
        audits=tuple(audits), attribute_frequency=dict(frequency)
    )
