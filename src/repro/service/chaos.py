"""Service-wide chaos layer: one seeded schedule for every fault seam.

The journal's torn-tail handling is tested with deterministic fault
schedules; this module extends the same discipline to the *whole service
surface*:

* **disk** — the :class:`~repro.io.faultfs.FaultPlane` installed over
  every durable write (journal append/fsync, snapshot and checkpoint
  replaces): ENOSPC, EIO, torn writes, fsync failure, slow I/O;
* **network** — the asyncio front end (:mod:`repro.service.http`)
  corrupts *responses* the way flaky networks do: connection reset
  mid-body, truncated body under a full ``Content-Length``, stalled
  (slow-loris) responses, keep-alive churn (``Connection: close`` storms);
* **worker** — the dispatch loop stalls a worker mid-job (exercising the
  watchdog's RUNNING→PENDING re-queue) or poisons a batch (exercising the
  FAILED→retry→QUARANTINED ladder).

Every decision is a CRC32 draw from ``seed + stable key`` (see
:func:`repro.io.faultfs.seeded_roll`), so ``serve --chaos <spec>`` replays
the same fault storm on every run — which is what lets CI assert the
service *returns to HEALTHY* rather than merely "usually survives".

Spec grammar (``ChaosConfig.parse``), e.g.::

    serve --chaos "disk-enospc=0.05,disk-fsync=0.05,net-reset=0.05,\
worker-stall=0.02,seed=7"

Keys: ``disk-enospc``, ``disk-eio``, ``disk-fsync``, ``disk-torn``,
``disk-slow`` (rates), ``disk-slow-seconds``; ``net-reset``,
``net-truncate``, ``net-stall``, ``net-close`` (rates),
``net-stall-seconds``; ``worker-stall``, ``worker-poison`` (rates),
``worker-stall-seconds``; ``seed`` (shared by all three seams).

The module also re-exports the :class:`CrashPointRegistry` and names the
canonical :data:`CRASH_POINTS` — every fsync/replace boundary a crash is
allowed to interrupt — which the torture harness in
``tests/test_crash_points.py`` enumerates one kill at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.io.faultfs import (
    CRASH_EXIT_CODE,
    ENV_CRASH_POINT,
    ENV_CRASH_POINT_SKIP,
    CrashPointRegistry,
    DiskFaultConfig,
    FaultPlane,
    crash_point,
    registry,
    seeded_roll,
)

__all__ = [
    "CRASH_POINTS",
    "CRASH_EXIT_CODE",
    "ENV_CRASH_POINT",
    "ENV_CRASH_POINT_SKIP",
    "CrashPointRegistry",
    "DiskFaultConfig",
    "FaultPlane",
    "NetChaosConfig",
    "WorkerChaosConfig",
    "ChaosConfig",
    "crash_point",
    "registry",
]

#: Every named fsync/replace boundary in the durable stores.  The torture
#: harness kills a subprocess at each one and asserts the two invariants
#: (no acknowledged job lost, no unacknowledged torn record replayed) plus
#: bit-identical re-audit results after recovery.
CRASH_POINTS = (
    "journal.append.after_write",  # record buffered, not yet durable
    "journal.sync.before_fsync",  # flushed to the OS, fsync not issued
    "journal.sync.after_fsync",  # durable, acknowledgement not yet sent
    "journal.recover.before_truncate",  # crash *during* torn-tail repair
    "journal.compact.before_replace",  # compacted file fsynced, not swapped
    "journal.compact.after_replace",  # swapped, directory entry not fsynced
    "snapshot.before_replace",
    "snapshot.after_replace",
    "checkpoint.before_replace",
    "checkpoint.after_replace",
)


@dataclass(frozen=True)
class NetChaosConfig:
    """Seeded response-corruption schedule for the HTTP front end.

    Faults strike *after* dispatch — the service has already committed —
    so a client that never hears its 202 faces the classic at-least-once
    ambiguity and must retry into the ``duplicate_id`` guard.  Nothing
    here may forge an acknowledgement that was not journaled.
    """

    reset_rate: float = 0.0  # abort the transport mid-body (RST)
    truncate_rate: float = 0.0  # full Content-Length, half the bytes
    stall_rate: float = 0.0  # sleep before responding (slow server)
    close_rate: float = 0.0  # force Connection: close (keep-alive churn)
    stall_seconds: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("reset_rate", "truncate_rate", "stall_rate", "close_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.stall_seconds < 0:
            raise ValueError(f"stall_seconds must be >= 0, got {self.stall_seconds}")

    @property
    def enabled(self) -> bool:
        return (
            self.reset_rate + self.truncate_rate + self.stall_rate + self.close_rate
        ) > 0

    def roll(self, kind: str, key: str) -> bool:
        return seeded_roll(self.seed, f"net-{kind}", key, getattr(self, f"{kind}_rate"))


@dataclass(frozen=True)
class WorkerChaosConfig:
    """Seeded dispatch-loop faults: stalled workers and poison batches."""

    stall_rate: float = 0.0  # worker sleeps mid-job (watchdog bait)
    poison_rate: float = 0.0  # job raises WorkerCrashError (retry ladder)
    stall_seconds: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("stall_rate", "poison_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.stall_seconds < 0:
            raise ValueError(f"stall_seconds must be >= 0, got {self.stall_seconds}")

    @property
    def enabled(self) -> bool:
        return (self.stall_rate + self.poison_rate) > 0

    def roll(self, kind: str, key: str) -> bool:
        return seeded_roll(
            self.seed, f"worker-{kind}", key, getattr(self, f"{kind}_rate")
        )


@dataclass(frozen=True)
class ChaosConfig:
    """The full ``--chaos`` spec: disk + network + worker schedules."""

    disk: DiskFaultConfig = field(default_factory=DiskFaultConfig)
    net: NetChaosConfig = field(default_factory=NetChaosConfig)
    worker: WorkerChaosConfig = field(default_factory=WorkerChaosConfig)
    spec: str = ""  # the original CLI string, for health/bench reporting

    @property
    def enabled(self) -> bool:
        return self.disk.enabled or self.net.enabled or self.worker.enabled

    @property
    def seed(self) -> int:
        return self.disk.seed

    @classmethod
    def parse(cls, spec: str) -> "ChaosConfig":
        """Parse the ``serve --chaos`` grammar (see module docstring).

        Raises :class:`ValueError` on unknown keys or malformed values,
        mirroring :meth:`repro.io.faultfs.DiskFaultConfig.parse`.
        """
        disk: "dict[str, float | int]" = {}
        net: "dict[str, float | int]" = {}
        worker: "dict[str, float | int]" = {}
        seed = 0
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"chaos spec entry {part!r} is not key=value")
            key, _, raw = part.partition("=")
            key = key.strip().lower().replace("_", "-")
            if key == "seed":
                seed = int(raw)
            elif key.startswith("disk-"):
                name = key[len("disk-") :].replace("-", "_")
                if name in ("enospc", "eio", "fsync", "torn", "slow"):
                    disk[f"{name}_rate"] = float(raw)
                elif name == "slow_seconds":
                    disk[name] = float(raw)
                else:
                    raise ValueError(f"unknown chaos spec key {key!r}")
            elif key.startswith("net-"):
                name = key[len("net-") :].replace("-", "_")
                if name in ("reset", "truncate", "stall", "close"):
                    net[f"{name}_rate"] = float(raw)
                elif name == "stall_seconds":
                    net[name] = float(raw)
                else:
                    raise ValueError(f"unknown chaos spec key {key!r}")
            elif key.startswith("worker-"):
                name = key[len("worker-") :].replace("-", "_")
                if name in ("stall", "poison"):
                    worker[f"{name}_rate"] = float(raw)
                elif name == "stall_seconds":
                    worker[name] = float(raw)
                else:
                    raise ValueError(f"unknown chaos spec key {key!r}")
            else:
                raise ValueError(f"unknown chaos spec key {key!r}")
        return cls(
            disk=DiskFaultConfig(seed=seed, **disk),
            net=NetChaosConfig(seed=seed, **net),
            worker=WorkerChaosConfig(seed=seed, **worker),
            spec=spec,
        )

    def describe(self) -> dict:
        """Flat summary for ``/v1/healthz`` and the bench payload."""
        return {
            "spec": self.spec,
            "seed": self.seed,
            "disk": {
                "enospc": self.disk.enospc_rate,
                "eio": self.disk.eio_rate,
                "fsync": self.disk.fsync_rate,
                "torn": self.disk.torn_rate,
                "slow": self.disk.slow_rate,
            },
            "net": {
                "reset": self.net.reset_rate,
                "truncate": self.net.truncate_rate,
                "stall": self.net.stall_rate,
                "close": self.net.close_rate,
            },
            "worker": {
                "stall": self.worker.stall_rate,
                "poison": self.worker.poison_rate,
            },
        }
