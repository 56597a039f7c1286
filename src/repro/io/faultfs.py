"""Injectable filesystem fault plane (chaos mode for durable I/O).

Every durable write in the system — journal appends, group-commit fsyncs,
snapshot/checkpoint replaces — funnels through this module's free
functions (:func:`write`, :func:`fsync`) instead of calling the OS
directly.  With no plane installed they are zero-cost pass-throughs; with
a :class:`FaultPlane` installed (``serve --chaos <spec>``, tests) each
operation rolls a **deterministic, seeded** die and may fail the way real
disks fail:

* ``enospc`` — :class:`OSError` ``ENOSPC`` before any byte is written;
* ``eio``    — :class:`OSError` ``EIO`` before any byte is written;
* ``torn``   — a *prefix* of the payload is written, then ``EIO`` — the
  classic partial write a crash-consistent log must truncate away;
* ``fsync``  — the write buffers fine but ``fsync`` raises ``EIO`` (the
  infamous fsync-gate failure mode: durability was never promised);
* ``slow``   — the operation sleeps ``slow_seconds`` first (a saturated
  or dying device).

Decisions are CRC32 draws (:func:`seeded_roll`) — seed + stable
per-operation key, never global randomness — so the same spec produces
the same fault sequence on every run, and faults are
*transient*: each operation consumes a fresh key, so a retry (the
degraded-mode probe loop in :class:`~repro.service.server.AuditService`)
eventually lands.

The module also hosts the :class:`CrashPointRegistry`: named kill
switches compiled into every fsync/replace boundary.  Arming one via the
``REPRO_CRASH_POINT`` environment variable makes the process ``os._exit``
the *n*-th time that boundary is crossed (``REPRO_CRASH_POINT_SKIP``
skips the first *n* hits) — the substrate of the crash-point torture
harness in ``tests/test_crash_points.py``.
"""

from __future__ import annotations

import errno
import os
import threading
import time
import zlib
from dataclasses import dataclass, replace

__all__ = [
    "CRASH_EXIT_CODE",
    "ENV_CRASH_POINT",
    "ENV_CRASH_POINT_SKIP",
    "DiskFaultConfig",
    "FaultPlane",
    "CrashPointRegistry",
    "registry",
    "crash_point",
    "install",
    "uninstall",
    "active",
    "write",
    "fsync",
    "seeded_roll",
]

#: Exit status used by an armed crash point — distinctive, so the torture
#: harness can tell "killed at the boundary" from an ordinary crash.
CRASH_EXIT_CODE = 86

ENV_CRASH_POINT = "REPRO_CRASH_POINT"
ENV_CRASH_POINT_SKIP = "REPRO_CRASH_POINT_SKIP"


def seeded_roll(seed: int, kind: str, key: str, rate: float) -> bool:
    """Deterministic Bernoulli draw: CRC32 of ``seed:kind:key`` vs ``rate``.

    Stable across processes and hash randomisation, so one seed drives
    one reproducible fault schedule across every chaos seam.
    """
    if rate <= 0.0:
        return False
    token = f"{seed}:{kind}:{key}".encode()
    return (zlib.crc32(token) / 0x1_0000_0000) < rate


@dataclass(frozen=True)
class DiskFaultConfig:
    """Seeded disk-fault schedule: which durable ops fail, how often, how."""

    enospc_rate: float = 0.0
    eio_rate: float = 0.0
    fsync_rate: float = 0.0
    torn_rate: float = 0.0
    slow_rate: float = 0.0
    slow_seconds: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("enospc_rate", "eio_rate", "fsync_rate", "torn_rate", "slow_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.slow_seconds < 0:
            raise ValueError(f"slow_seconds must be >= 0, got {self.slow_seconds}")

    @property
    def enabled(self) -> bool:
        """True when any disk fault can fire."""
        return (
            self.enospc_rate
            + self.eio_rate
            + self.fsync_rate
            + self.torn_rate
            + self.slow_rate
        ) > 0

    def roll(self, kind: str, key: str) -> bool:
        return seeded_roll(self.seed, kind, key, getattr(self, f"{kind}_rate"))

    @classmethod
    def parse(cls, spec: str) -> "DiskFaultConfig":
        """Build from ``enospc=0.05,fsync=0.02,seed=7`` (see ChaosConfig)."""
        config = cls()
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"disk fault spec entry {part!r} is not key=value")
            key, _, raw = part.partition("=")
            key = key.strip().lower().replace("-", "_")
            if key in ("enospc", "eio", "fsync", "torn", "slow"):
                config = replace(config, **{f"{key}_rate": float(raw)})
            elif key == "slow_seconds":
                config = replace(config, slow_seconds=float(raw))
            elif key == "seed":
                config = replace(config, seed=int(raw))
            else:
                raise ValueError(f"unknown disk fault spec key {key!r}")
        return config


class FaultPlane:
    """One process-wide decision point for injected disk faults.

    Keys are ``<label>:<op>-<n>`` where *n* is a per-(label, op) counter —
    so the schedule is deterministic per seam (``journal``, snapshot file
    name, …) regardless of thread interleaving across seams.  Fired faults
    are counted into ``chaos.faults_injected`` (plus a per-kind counter)
    on the attached metrics registry, if any.
    """

    def __init__(self, config: DiskFaultConfig, metrics=None) -> None:
        self.config = config
        self.metrics = metrics
        self._lock = threading.Lock()
        self._ops: "dict[tuple[str, str], int]" = {}

    def _key(self, op: str, label: str) -> str:
        with self._lock:
            count = self._ops.get((label, op), 0)
            self._ops[(label, op)] = count + 1
        return f"{label}:{op}-{count}"

    def _fired(self, kind: str) -> None:
        if self.metrics is not None:
            self.metrics.inc("chaos.faults_injected")
            self.metrics.inc(f"chaos.disk_{kind}")

    def write(self, handle, data, label: str) -> None:
        """Write ``data`` (str or bytes) to ``handle``, or fail like a disk."""
        config = self.config
        key = self._key("write", label)
        if config.roll("slow", key):
            self._fired("slow")
            time.sleep(config.slow_seconds)
        if config.roll("enospc", key):
            self._fired("enospc")
            raise OSError(errno.ENOSPC, f"injected ENOSPC at {key!r}")
        if config.roll("eio", key):
            self._fired("eio")
            raise OSError(errno.EIO, f"injected EIO at {key!r}")
        if config.roll("torn", key) and len(data) > 1:
            self._fired("torn")
            handle.write(data[: max(1, len(data) // 2)])
            raise OSError(errno.EIO, f"injected torn write at {key!r}")
        handle.write(data)

    def fsync(self, fileno: int, label: str) -> None:
        """fsync ``fileno``, or raise ``EIO`` without any durability promise."""
        config = self.config
        key = self._key("fsync", label)
        if config.roll("slow", key):
            self._fired("slow")
            time.sleep(config.slow_seconds)
        if config.roll("fsync", key):
            self._fired("fsync")
            raise OSError(errno.EIO, f"injected fsync failure at {key!r}")
        os.fsync(fileno)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlane({self.config})"


# The installed plane.  Plain attribute + GIL is enough: install/uninstall
# happen at service start/stop, reads are a single load on the hot path.
_active: "FaultPlane | None" = None


def install(plane: FaultPlane) -> None:
    """Route every durable write/fsync in this process through ``plane``."""
    global _active
    _active = plane


def uninstall() -> None:
    global _active
    _active = None


def active() -> "FaultPlane | None":
    return _active


def write(handle, data, label: str = "file") -> None:
    """``handle.write(data)`` through the installed fault plane (if any)."""
    plane = _active
    if plane is None or not plane.config.enabled:
        handle.write(data)
        return
    plane.write(handle, data, label)


def fsync(fileno: int, label: str = "file") -> None:
    """``os.fsync(fileno)`` through the installed fault plane (if any)."""
    plane = _active
    if plane is None or not plane.config.enabled:
        os.fsync(fileno)
        return
    plane.fsync(fileno, label)


class CrashPointRegistry:
    """Named kill switches at every fsync/replace boundary.

    ``hit(name)`` is a no-op counter until the process is *armed* for that
    name (environment: ``REPRO_CRASH_POINT=<name>``, optionally
    ``REPRO_CRASH_POINT_SKIP=<n>`` to survive the first *n* crossings).
    An armed hit calls ``os._exit(CRASH_EXIT_CODE)`` — no atexit handlers,
    no buffer flushes, exactly like a power cut at that instant.  ``seen``
    records crossing counts for in-process coverage assertions.
    """

    def __init__(self, environ=None) -> None:
        env = os.environ if environ is None else environ
        self._lock = threading.Lock()
        self.seen: "dict[str, int]" = {}
        self.armed = env.get(ENV_CRASH_POINT) or None
        try:
            self.skip = int(env.get(ENV_CRASH_POINT_SKIP, "0") or "0")
        except ValueError:
            self.skip = 0

    def hit(self, name: str) -> None:
        with self._lock:
            self.seen[name] = self.seen.get(name, 0) + 1
            if self.armed != name:
                return
            if self.skip > 0:
                self.skip -= 1
                return
        os._exit(CRASH_EXIT_CODE)  # pragma: no cover - kills the process


#: Process-global registry, armed from the environment at import time so a
#: subprocess can be killed at a boundary with zero code changes.
registry = CrashPointRegistry()


def crash_point(name: str) -> None:
    """Cross the named crash boundary (dies here when armed)."""
    registry.hit(name)
