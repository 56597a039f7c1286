"""Daemon workloads: a real ``python -m repro.cli serve`` driven over HTTP.

One run: set up (spawn -> listening -> warm-up jobs DONE) several times on
fresh workdirs, keeping the last daemon; then the plan's blocks, one after
the other.  Each block is an open-loop segment that sends single-job
``POST /v1/jobs`` arrivals on schedule whether or not earlier jobs
finished, and then a capacity backlog that hands the same job mix over as
one ``POST /v1/jobs/batch``.  Load comes from this one
process over at most ``nproc`` (and at most two) connections.  Latency runs
from a job's due time to the daemon's recorded completion (``updated_at``);
both are wall-clock times on this host.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfbench import stats, workloads

#: Set-ups per run; ``setup_s`` is their median and the last daemon is kept.
SETUP_REPEATS = 5

#: Health-poll interval while a timed segment or backlog drains.  Completion
#: times come from the daemon's records, so the interval only decides when
#: the next step starts; each poll costs the daemon ~0.3 ms of CPU under
#: the queue workers' GIL, so polling at 100 Hz took ~3% of a core from the
#: jobs being timed.  Set-up polls every 10 ms, as its end is timed here.
DRAIN_POLL_S = 0.05

#: Cold jobs re-audited in-process after the timed phase (one per algorithm).
REAUDIT_SAMPLE = len(workloads.PAPER_ALGORITHMS)

_LISTENING = "audit service listening on http://"
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class Daemon:
    """A ``serve`` subprocess on an ephemeral port with its own workdir."""

    def __init__(self, root: Path, workdir: Path, flags) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(workdir / "daemon.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--workdir", str(workdir / "state"),
             "--host", "127.0.0.1", "--port", "0", *flags],
            stdout=subprocess.PIPE, stderr=self._log, text=True, env=env, cwd=root,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120)
            line = self.proc.stdout.readline() if ready else ""
            if _LISTENING not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.port = int(line.split(_LISTENING, 1)[1].split()[0].rstrip("/").rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def journal_bytes(self) -> int:
        return (self.workdir / "state" / "journal.jsonl").stat().st_size

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


class Client:
    """One persistent HTTP/1.1 connection to the daemon."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")

    def close(self) -> None:
        self.conn.close()


def _connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def wait_idle(client: Client, interval: float = 0.01, timeout: float = 120.0) -> None:
    """Poll health every ``interval`` seconds until nothing is queued or running."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, health = client.call("GET", "/v1/healthz")
        if health["queued"] == 0 and health["running"] == 0:
            return
        time.sleep(interval)
    raise TimeoutError("daemon did not drain its queue in time")


def fetch_jobs(client: Client, count: int) -> "dict[str, dict]":
    """The ``count`` most recently submitted job records, by id."""
    _, body = client.call("GET", f"/v1/jobs?limit={count}")
    return {job["id"]: job for job in body["jobs"]}


def submit_backlog(client: Client, specs) -> float:
    """Hand ``specs`` over as one bulk submission; returns the hand-over time."""
    handover = time.time()
    status, body = client.call("POST", "/v1/jobs/batch", {"jobs": specs})
    if status != 202:
        raise RuntimeError(f"backlog refused: {status} {body}")
    return handover


def metrics_snapshot(client: Client) -> dict:
    return client.call("GET", "/v1/metrics")[1]


def start_and_warm(root: Path, workdir: Path, warmup) -> "tuple[Daemon, float]":
    """One set-up: spawn -> listening -> warm-up jobs DONE (timed).

    Warm-up jobs go through the single-job ``POST /v1/jobs`` path the open
    loop uses.
    """
    start = time.perf_counter()
    daemon = Daemon(root, workdir, workloads.DAEMON_FLAGS)
    try:
        client = Client(daemon.port)
        try:
            for spec in warmup:
                status, body = client.call("POST", "/v1/jobs", spec)
                if status != 202:
                    raise RuntimeError(f"warm-up job refused: {status} {body}")
            wait_idle(client)
            jobs = fetch_jobs(client, len(warmup))
        finally:
            client.close()
        elapsed = time.perf_counter() - start
        bad = [j for j in jobs.values() if j["state"] != "DONE"]
        if len(jobs) != len(warmup) or bad:
            raise RuntimeError(f"warm-up jobs did not finish: {bad[:2]}")
    except BaseException:
        daemon.stop()
        raise
    return daemon, elapsed


def open_loop(port: int, arrivals) -> "tuple[float, list]":
    """Send ``(due_offset, spec)`` arrivals on schedule over <= 2 connections.

    Returns the wall-clock time of offset 0 and, per arrival,
    ``(due, sent, acked, http_status)`` in seconds since offset 0.
    """
    n_conn = _connections()
    t0_mono = time.monotonic() + 0.05
    t0_wall = time.time() + (t0_mono - time.monotonic())
    records: list = [None] * len(arrivals)
    failures: list = []

    def sender(lane: int) -> None:
        try:
            client = Client(port)
        except OSError as exc:
            failures.append(exc)
            return
        try:
            for i in range(lane, len(arrivals), n_conn):
                offset, spec = arrivals[i]
                delay = t0_mono + offset - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic() - t0_mono
                try:
                    status, _ = client.call("POST", "/v1/jobs", spec)
                except (OSError, http.client.HTTPException, ValueError):
                    status = None
                    client.close()
                    client = Client(port)
                records[i] = (offset, sent, time.monotonic() - t0_mono, status)
        finally:
            client.close()

    threads = [threading.Thread(target=sender, args=(lane,)) for lane in range(n_conn)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise RuntimeError(f"load generator could not connect: {failures[0]}")
    return t0_wall, records


def _rows_ok(job: dict, spec: dict) -> bool:
    if job["state"] != "DONE" or not job.get("result"):
        return False
    rows = job["result"]["rows"]
    return (
        len(rows) == 1
        and rows[0]["algorithm"] == spec["algorithm"]
        and rows[0]["function"] == spec["functions"][0]
        and not rows[0]["deadline_hit"]
        and 0.0 < rows[0]["unfairness"] <= 1.0
        and rows[0]["n_partitions"] >= 1
    )


def reaudit(specs) -> "dict[str, list]":
    """Rows of each spec recomputed in this process through the public API."""
    from repro.simulation.config import PaperConfig
    from repro.simulation.runner import run_scenario
    from repro.simulation.scenarios import Scenario, table2_scenario

    out = {}
    for spec in specs:
        scenario = table2_scenario(PaperConfig(n_workers=spec["n_workers"]))
        function = spec["functions"][0]
        scenario = Scenario(
            name=scenario.name,
            population=scenario.population,
            functions={function: scenario.functions[function]},
            hist_spec=scenario.hist_spec,
        )
        experiment = run_scenario(scenario, algorithms=(spec["algorithm"],), seed=spec["seed"])
        out[spec["id"]] = [
            {
                "function": row.function,
                "algorithm": row.algorithm,
                "unfairness": row.unfairness,
                "n_partitions": row.n_partitions,
                "attributes_used": list(row.attributes_used),
                "deadline_hit": row.deadline_hit,
            }
            for row in experiment.rows
        ]
    return out


def _delta(before: dict, after: dict, kind: str, name: str, field: "str | None" = None) -> float:
    def get(snapshot):
        value = snapshot.get(kind, {}).get(name, 0)
        if field is not None:
            value = value.get(field, 0) if value else 0
        return value

    return float(get(after) - get(before))


#: ``/v1/metrics`` timers and counters summed over the open-loop segments.
_TRACED = (
    ("timings", "service.job_seconds", "count"),
    ("timings", "service.job_seconds", "total_seconds"),
    ("timings", "algorithm.run_seconds", "count"),
    ("timings", "algorithm.run_seconds", "total_seconds"),
    ("timings", "service.wait_seconds", "count"),
    ("timings", "service.wait_seconds", "total_seconds"),
    ("counters", "service.cache_hits", None),
    ("counters", "service.cache_misses", None),
)


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool, workroot: Path) -> dict:
    """One run of a daemon workload; returns the result record."""
    cfg = workloads.DAEMON[workload]
    plan = workloads.daemon_plan(workload, seed, seconds)
    setup_times = []
    daemon = None
    errors: "list[str]" = []
    deltas = dict.fromkeys(_TRACED, 0.0)
    snapshot_s = cpu_open = 0.0
    segments = []  # (t0_wall, arrivals, sends) per open-loop segment
    open_jobs: "dict[str, dict]" = {}
    capacity = []  # (handover, specs, jobs) per backlog
    try:
        for attempt in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
                shutil.rmtree(daemon.workdir, ignore_errors=True)
            daemon, elapsed = start_and_warm(root, workroot / f"daemon{attempt}", plan["warmup"])
            setup_times.append(elapsed)
        client = Client(daemon.port)
        try:
            for block in plan["blocks"]:
                if trace:
                    start = time.perf_counter()
                    before = metrics_snapshot(client)
                    snapshot_s += time.perf_counter() - start
                cpu_before = daemon.cpu_seconds()
                t0_wall, sends = open_loop(daemon.port, block["open"])
                wait_idle(client, DRAIN_POLL_S)
                cpu_open += daemon.cpu_seconds() - cpu_before
                if trace:
                    start = time.perf_counter()
                    after = metrics_snapshot(client)
                    snapshot_s += time.perf_counter() - start
                    for key in _TRACED:
                        deltas[key] += _delta(before, after, *key)
                segments.append((t0_wall, block["open"], sends))
                open_jobs.update(fetch_jobs(client, len(block["open"])))
                handover = submit_backlog(client, block["backlog"])
                wait_idle(client, DRAIN_POLL_S)
                capacity.append((handover, block["backlog"],
                                 fetch_jobs(client, len(block["backlog"]))))
            peak_rss = daemon.peak_rss_mb()
        finally:
            client.close()
        n_submitted = len(plan["warmup"]) + sum(
            len(block["open"]) + len(block["backlog"]) for block in plan["blocks"]
        )
    finally:
        if daemon is not None:
            daemon.stop()
    journal_bytes = daemon.journal_bytes()
    shutil.rmtree(daemon.workdir, ignore_errors=True)
    open_arrivals = workloads.open_arrivals(plan)

    # ---- output checks (outside the timed phases)
    attempted = failed = 0
    latencies, late, ack = [], [], []
    job_spans = []
    open_wall = 0.0
    for t0_wall, arrivals, sends in segments:
        segment_end = t0_wall
        for (offset, spec), send in zip(arrivals, sends):
            attempted += 1
            job = open_jobs.get(spec["id"])
            ok = send is not None and send[3] == 202 and job is not None and _rows_ok(job, spec)
            if not ok:
                failed += 1
                errors.append(f"open-loop job {spec['id']} failed: {send} {job and job['state']}")
                continue
            due_wall = t0_wall + offset
            latencies.append(job["updated_at"] - due_wall)
            late.append(send[1] - send[0])
            ack.append(send[2] - send[1])
            # Client spans of one job: due -> completed, split at sent and acked.
            op = len(job_spans) // 4
            root_index = len(job_spans)
            sent, acked, done = t0_wall + send[1], t0_wall + send[2], job["updated_at"]
            job_spans += [
                ("job", due_wall, done, -1, op),
                ("loadgen.late", due_wall, sent, root_index, op),
                ("http.ack", sent, acked, root_index, op),
                ("daemon.complete", acked, done, root_index, op),
            ]
            segment_end = max(segment_end, done)
        open_wall += segment_end - t0_wall
    rates = []
    backlog_jobs = backlog_wall = 0.0
    for handover, specs, done in capacity:
        finished = []
        for spec in specs:
            attempted += 1
            job = done.get(spec["id"])
            if job is None or not _rows_ok(job, spec):
                failed += 1
                errors.append(f"backlog job {spec['id']} failed: {job and job['state']}")
            else:
                finished.append(job["updated_at"])
        if finished:
            rates.append(len(finished) / (max(finished) - handover))
            backlog_jobs += len(finished)
            backlog_wall += max(finished) - handover
    expected_rows = reaudit([spec for _, spec in open_arrivals[:REAUDIT_SAMPLE]])
    for job_id, rows in expected_rows.items():
        attempted += 1
        got = open_jobs.get(job_id, {}).get("result") or {}
        if got.get("rows") != rows:
            failed += 1
            errors.append(f"re-audit of {job_id} differs: {got.get('rows')} != {rows}")
    if seed == workloads.DEFAULT_SEED:
        path = root / "perfbench" / "expected" / "default_seed.json"
        want = json.loads(path.read_text())[workload]
        attempted += 1
        if want != json.loads(json.dumps(expected_rows)):
            failed += 1
            errors.append("rows at the default seed differ from expected/default_seed.json")

    if not latencies or not backlog_jobs:
        raise RuntimeError(f"no open-loop or backlog job completed: {errors[:3]}")
    n_open = len(open_arrivals)
    limit_s = cfg["p90_limit_ms"] / 1000.0
    record = {
        "samples": {"latency_s": latencies, "setup_s": setup_times},
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "expected_rows": expected_rows,
        "offered_rate": cfg["rate"],
        "p90_limit_ms": cfg["p90_limit_ms"],
        "daemon_flags": list(workloads.DAEMON_FLAGS),
        "blocks": len(plan["blocks"]),
        "open_jobs": n_open,
        "capacity_jobs": sum(len(specs) for _, specs, _ in capacity),
        "capacity_rates": rates,
        "slo_miss_frac": (n_open - sum(1 for x in latencies if x <= limit_s)) / n_open,
    }
    tail = stats.tail_percentile(latencies)
    record["latency_tail"] = (
        {"percentile": tail[0], "ms": 1000.0 * tail[1], "n": len(latencies)} if tail else None
    )
    if trace:
        (jobs_delta, job_total, search_n, search_total,
         wait_n, wait_total, hits, misses) = (deltas[key] for key in _TRACED)
        record["metrics"] = {
            "http.ack_ms_p50": (1000.0 * stats.percentile(ack, 50), "ms"),
            "http.ack_ms_p90": (1000.0 * stats.percentile(ack, 90), "ms"),
            "queue.wait_ms_mean": (1000.0 * wait_total / wait_n if wait_n else 0.0, "ms"),
            "job.run_ms_mean": (1000.0 * job_total / jobs_delta if jobs_delta else 0.0, "ms"),
            "search.run_ms_mean": (1000.0 * search_total / search_n if search_n else 0.0, "ms"),
            "service.overhead_ms": (
                1000.0 * (job_total - search_total) / jobs_delta if jobs_delta else 0.0, "ms"
            ),
            "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "journal.bytes_per_job": (journal_bytes / n_submitted, "bytes"),
            "daemon.cpu_ms_per_job": (1000.0 * cpu_open / n_open, "ms"),
            "loadgen.late_ms_p90": (1000.0 * stats.percentile(late, 90), "ms"),
            # Daemon tracing is the /v1/metrics snapshots; client spans
            # are derived from records every run keeps anyway.
            "trace.overhead_frac": (snapshot_s / open_wall, "ratio"),
        }
        record["spans"] = job_spans
    else:
        record["metrics"] = {
            "setup_s": (statistics.median(setup_times), "s"),
            "audits_per_s": (len(latencies) / open_wall, "1/s"),
            # Pooled over the run's backlogs: all their jobs over all their drain time.
            "capacity_jobs_per_s": (backlog_jobs / backlog_wall, "1/s"),
            "latency_p50_ms": (1000.0 * stats.harrell_davis(latencies, 50), "ms"),
            "latency_p90_ms": (1000.0 * stats.harrell_davis(latencies, 90), "ms"),
            "peak_rss_mb": (peak_rss, "MiB"),
        }
    if not all(math.isfinite(v) for v, _ in record["metrics"].values()):
        raise RuntimeError(f"non-finite metric: {record['metrics']}")
    return record
