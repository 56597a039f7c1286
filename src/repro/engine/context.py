"""The :class:`SearchContext` handed to every algorithm's ``_search``.

One object bundles everything a search needs — the population being
partitioned, the :class:`~repro.engine.engine.EvaluationEngine` that serves
every objective query, and the run's randomness source — so algorithms stop
owning evaluator plumbing and new engine capabilities (modes, counters)
reach all of them at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.population import Population
from repro.engine.engine import EvaluationEngine

__all__ = ["SearchContext"]


@dataclass
class SearchContext:
    """Everything one algorithm run searches with.

    Attributes
    ----------
    population:
        Worker store whose protected attributes define the search space.
    engine:
        The evaluation substrate; all unfairness queries go through it.
    rng:
        Randomness source (only the ``r-*`` baselines draw from it).
    deadline:
        Optional cooperative budget (see :mod:`repro.engine.deadline`).
        Algorithms poll :meth:`should_stop` at every iteration boundary and
        wind down with a partial result once it expires; ``None`` (the
        default) makes the poll a single attribute check.
    deadline_hit:
        Set by the first :meth:`should_stop` poll that observed expiry; the
        run's :class:`~repro.core.algorithms.base.AlgorithmResult` carries
        it out as the partial-result flag.
    """

    population: Population
    engine: EvaluationEngine
    rng: np.random.Generator
    deadline: "object | None" = None
    deadline_hit: bool = False

    def should_stop(self) -> bool:
        """Poll the deadline at an iteration boundary.

        Returns True once the budget is spent; the first expiring poll sets
        :attr:`deadline_hit` and bumps the ``search.deadline_hits`` counter
        so flagged partial results are visible in metrics.  Never raises —
        partial results are the cooperative contract; callers that need
        hard failure use ``deadline.raise_if_expired()`` directly.
        """
        if self.deadline is None:
            return False
        if self.deadline_hit or self.deadline.expired():
            if not self.deadline_hit:
                self.deadline_hit = True
                self.metrics.inc("search.deadline_hits")
            return True
        return False

    @property
    def protected_names(self) -> tuple[str, ...]:
        """Shorthand for the population's protected attribute names."""
        return tuple(self.population.schema.protected_names)

    @property
    def tracer(self):
        """The engine's tracer (the disabled no-op tracer by default)."""
        return self.engine.tracer

    @property
    def metrics(self):
        """The engine's metrics registry."""
        return self.engine.metrics
