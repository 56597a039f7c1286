"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause,
while still being able to distinguish configuration mistakes from search
budget exhaustion.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """An attribute or schema definition is invalid or inconsistent."""


class PopulationError(ReproError):
    """A population is malformed (wrong columns, bad dtypes, out-of-domain values)."""


class MutationError(PopulationError):
    """A streaming mutation could not be applied to a mutable population.

    Raised for unknown worker ids, duplicate ids on ``add``, non-finite or
    out-of-range scores, and malformed mutation records — before any state
    is touched, so a rejected mutation never leaves the population (or the
    derived atom counts) partially updated.
    """


class ScoringError(ReproError):
    """A scoring function is mis-configured or produced out-of-range scores."""


class PartitioningError(ReproError):
    """A partitioning violates the full-disjoint constraints or is degenerate."""


class MetricError(ReproError):
    """A histogram distance was asked to compare incompatible histograms."""


class RepairError(ReproError):
    """A repair strategy was mis-configured or produced an invalid ranking."""


class BackendError(ReproError):
    """A compute backend (kernel or job worker) failed."""


class KernelError(BackendError):
    """A kernel backend is unknown.

    Raised when ``--engine-kernel`` (or a job's ``kernel`` field) names a
    backend that is not registered.
    """


class WorkerCrashError(BackendError):
    """A job worker died mid-job (raised by the service's ``worker-*`` chaos).

    The service's retry ladder treats it as transient: the job is re-queued
    until ``max_attempts`` is spent, then quarantined.
    """


class CheckpointError(ReproError):
    """A checkpoint file is missing, corrupt, or from an incompatible run."""


class DeadlineExceededError(ReproError):
    """A search or job ran past its cooperative deadline.

    Carries the :class:`~repro.engine.deadline.Deadline` that expired.
    Search loops normally *poll* (``SearchContext.should_stop``) and return
    a flagged partial result instead of raising; this error is for callers
    that need hard failure semantics (``Deadline.raise_if_expired``) — e.g.
    the audit service refusing to start a job whose budget is already gone.
    """

    def __init__(self, deadline: "object | None" = None, message: "str | None" = None) -> None:
        self.deadline = deadline
        super().__init__(message or f"deadline exceeded: {deadline!r}")


class ServiceError(ReproError):
    """The audit service could not accept, run, or recover a job."""


class JobRejectedError(ServiceError):
    """A job submission was refused, with a typed machine-readable reason.

    ``reason`` is one of the :data:`~repro.service.server.REJECTION_REASONS`
    (``queue_full``, ``duplicate_id``, ``invalid_spec``, ``shutting_down``,
    ``rate_limited``, ``degraded``) so clients can distinguish backpressure
    from caller bugs from a service that has lost its disk.
    """

    def __init__(self, reason: str, message: "str | None" = None) -> None:
        self.reason = reason
        super().__init__(message or f"job rejected: {reason}")


class JobStateError(ServiceError):
    """An illegal job state transition was attempted (see repro.service.jobs)."""


class JournalError(ServiceError):
    """The job journal is unreadable, corrupt mid-file, or schema-incompatible.

    A *torn tail* (the final record cut short by a crash) is recovered, not
    raised; this error means a record before the tail failed its CRC — i.e.
    the file was damaged in a way recovery must not silently paper over.
    """


class JournalWriteError(JournalError):
    """A journal append or fsync failed — durability was NOT achieved.

    Raised instead of a bare :class:`OSError` so the acknowledgement path
    can tell "the disk refused this record" (reject the submit, flip the
    service READ_ONLY, keep serving reads) apart from "the file is
    corrupt" (:class:`JournalError` on open/replay).  Nothing guarded by
    this error may be acknowledged to a client: the group-commit path
    unwinds accepted-but-uncommitted records and rejects them with the
    typed ``degraded`` reason.

    ``written`` distinguishes the two failure shapes: ``False`` means the
    record never reached the file (safe to re-append after recovery);
    ``True`` means the bytes are in the file/OS cache but durability was
    not achieved (re-appending would duplicate the record — a later
    successful fsync is the only correct repair).
    """

    def __init__(self, message: "str | None" = None, *, written: bool = False) -> None:
        self.written = written
        super().__init__(message or "journal write failed")


class SnapshotError(ServiceError):
    """A population snapshot is missing, corrupt, or from an incompatible run.

    Mirrors :class:`CheckpointError` for the streaming layer: schema tags
    are gated, the state digest is recomputed on load, and a fingerprint
    recorded for a different monitor spec refuses to restore rather than
    silently merging incompatible state.
    """


class BudgetExceededError(ReproError):
    """An exhaustive search exceeded its configured evaluation budget.

    The paper reports that brute-force enumeration "failed to terminate after
    running for two days"; this error is our bounded-compute equivalent.
    """

    def __init__(self, budget: int, message: str | None = None) -> None:
        self.budget = budget
        super().__init__(
            message
            or f"exhaustive search exceeded its budget of {budget} partitioning evaluations"
        )
