"""Scale-out behaviour of the daemon: fairness, batching, races, filters.

Covers the PR 9 serving-stack additions:

* **weighted fair scheduling** — deterministic stride order over
  per-tenant queues, event-driven (blocking) worker wake-ups and the
  shutdown sentinel;
* **token-bucket rate limits** — the typed ``rate_limited`` rejection
  (HTTP 429) charged per tenant before any queue slot is consumed;
* **batching** — identical specs coalesce into one engine dispatch whose
  result every member shares, with complete journal histories;
* **concurrent-submit races** — N threads hammering intake at
  ``queue_limit`` get exactly the right mix of acceptances and typed
  ``queue_full`` rejections, with no duplicate or lost journal records;
* **journal group commit** — ``sync=False`` appends stay ordered and
  become durable on ``sync()``; concurrent durable appends coalesce
  safely;
* **``GET /v1/jobs`` filters** — ``state=`` / ``kind=`` / ``tenant=`` /
  ``limit=`` narrowing, server-side, with typed 400s for junk.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.exceptions import JobRejectedError, ServiceError
from repro.service import (
    AuditJob,
    AuditService,
    JobJournal,
    JobState,
    ServiceConfig,
    TenantScheduler,
    TokenBucket,
)
from repro.service.http import REJECTION_STATUS, dispatch


def _job(job_id: str, **overrides) -> AuditJob:
    spec = {"id": job_id, "scenario": "figure1", "algorithm": "balanced"}
    spec.update(overrides)
    return AuditJob(**spec)


class TestTenantScheduler:
    def test_weighted_stride_serves_two_to_one(self):
        scheduler = TenantScheduler({"a": 2.0, "b": 1.0})
        for i in range(6):
            scheduler.put("a", 0, f"a{i}")
        for i in range(3):
            scheduler.put("b", 0, f"b{i}")
        order = [scheduler.get(timeout=0.1) for _ in range(9)]
        assert sorted(order) == sorted(f"a{i}" for i in range(6)) + sorted(
            f"b{i}" for i in range(3)
        )
        # Stride scheduling is deterministic: weight-2 'a' is served twice
        # for every 'b', interleaved, never back-loaded.
        assert [x[0] for x in order] == list("abaabaaba")

    def test_within_tenant_priority_then_fifo(self):
        scheduler = TenantScheduler()
        scheduler.put("t", 5, "low")
        scheduler.put("t", 0, "high1")
        scheduler.put("t", 0, "high2")
        assert [scheduler.get(timeout=0.1) for _ in range(3)] == [
            "high1",
            "high2",
            "low",
        ]

    def test_new_tenant_joins_at_current_pass(self):
        scheduler = TenantScheduler()
        for i in range(50):
            scheduler.put("old", 0, f"old{i}")
        for _ in range(50):
            scheduler.get(timeout=0.1)
        scheduler.put("old", 0, "old-next")
        scheduler.put("new", 0, "new-first")
        # 'new' must not owe 50 strides of debt, nor may 'old' be starved.
        first_two = {scheduler.get(timeout=0.1), scheduler.get(timeout=0.1)}
        assert first_two == {"old-next", "new-first"}

    def test_blocking_get_wakes_on_put(self):
        scheduler = TenantScheduler()
        got = []
        worker = threading.Thread(target=lambda: got.append(scheduler.get()))
        worker.start()
        scheduler.put("t", 0, "j1")
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert got == ["j1"]

    def test_close_releases_blocked_getters_with_sentinel(self):
        scheduler = TenantScheduler()
        got = []
        workers = [
            threading.Thread(target=lambda: got.append(scheduler.get()))
            for _ in range(3)
        ]
        for worker in workers:
            worker.start()
        scheduler.close()
        for worker in workers:
            worker.join(timeout=5)
            assert not worker.is_alive()
        assert got == [None, None, None]

    def test_empty_timeout_returns_none(self):
        assert TenantScheduler().get(timeout=0.01) is None

    def test_take_matching_respects_limit_and_predicate(self):
        scheduler = TenantScheduler()
        for i in range(6):
            scheduler.put("t", 0, f"j{i}")
        taken = scheduler.take_matching(lambda j: j != "j2", 3)
        assert taken == ["j0", "j1", "j3"]
        left = [scheduler.get(timeout=0.1) for _ in range(3)]
        assert left == ["j2", "j4", "j5"]
        assert len(scheduler) == 0

    def test_invalid_weight_rejected(self):
        with pytest.raises(ServiceError, match="weight"):
            TenantScheduler({"t": 0.0})


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2, clock=lambda: now[0])
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()  # burst exhausted
        now[0] = 0.5  # 0.5 s at 2/s refills exactly one token
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_tokens_cap_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=100.0, burst=2, clock=lambda: now[0])
        now[0] = 60.0  # long idle must not bank more than `burst`
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_validation(self):
        with pytest.raises(ServiceError, match="rate"):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ServiceError, match="burst"):
            TokenBucket(rate=1.0, burst=0)


class TestRateLimitedIntake:
    def test_third_burst_submission_is_rate_limited(self, tmp_path):
        config = ServiceConfig(
            tmp_path, queue_limit=16, workers=1, port=None,
            rate_limit=2.0, rate_limit_burst=2,
        )
        with AuditService(config) as svc:
            svc.submit(_job("r1"))
            svc.submit(_job("r2"))
            with pytest.raises(JobRejectedError) as excinfo:
                svc.submit(_job("r3"))
            assert excinfo.value.reason == "rate_limited"
            assert (
                svc.metrics.as_dict()["counters"]["service.rejected.rate_limited"]
                == 1
            )
            # An over-limit tenant consumed no queue slot and other
            # tenants are unaffected: their buckets are independent.
            svc.submit(_job("other1", tenant="other"))
            assert svc.drain(timeout=60)

    def test_rate_limited_maps_to_429(self):
        assert REJECTION_STATUS["rate_limited"] == 429


class TestBatching:
    def test_identical_specs_share_one_dispatch(self, tmp_path):
        config = ServiceConfig(
            tmp_path, queue_limit=16, workers=1, port=None, batch_max=8
        )
        svc = AuditService(config)
        gate = threading.Event()
        calls = []
        original = svc._execute

        def gated(job):
            gate.wait(timeout=60)
            calls.append(job.id)
            return original(job)

        svc._execute = gated
        with svc:
            svc.submit(_job("blocker", seed=99))
            batch_ids = [f"same{i}" for i in range(6)]
            for job_id in batch_ids:
                # Distinct ids/priorities/tenants, identical spec otherwise.
                svc.submit(_job(job_id, tenant=f"t{job_id[-1]}"))
            svc.submit(_job("odd-one", seed=7))
            gate.set()
            assert svc.drain(timeout=120)
            counters = svc.metrics.as_dict()["counters"]
            # blocker + one shared dispatch for all six + odd-one = 3 runs.
            assert len(calls) == 3
            assert counters["service.batches"] == 1
            assert counters["service.batched_jobs"] == 6
            results = {
                job_id: svc.record(job_id).result for job_id in batch_ids
            }
            assert all(svc.record(j).state is JobState.DONE for j in batch_ids)
            assert len({json.dumps(r, sort_keys=True) for r in results.values()}) == 1
            assert svc.record("blocker").state is JobState.DONE
            assert svc.record("odd-one").state is JobState.DONE
        # Every member of the batch has a complete journaled history.
        replayed = JobJournal(tmp_path / "journal.jsonl").replay()
        for job_id in batch_ids + ["blocker", "odd-one"]:
            assert replayed[job_id].state is JobState.DONE
            assert replayed[job_id].attempt == 1

    def test_deadline_jobs_never_batch(self, tmp_path):
        config = ServiceConfig(tmp_path, queue_limit=16, workers=1, port=None,
                               batch_max=8)
        svc = AuditService(config)
        with svc:
            assert not svc._batchable(_job("d1", deadline_seconds=30.0))
            assert not svc._batchable(_job("m1", kind="mitigate"))
            assert svc._batchable(_job("a1"))

    def test_batch_key_ignores_identity_fields_only(self):
        base = _job("x", tenant="a", priority=3)
        twin = _job("y", tenant="b", priority=0)
        other = _job("z", seed=1)
        key = AuditService._batch_key
        svc = object.__new__(AuditService)  # _batch_key needs no state
        assert key(svc, base) == key(svc, twin)
        assert key(svc, base) != key(svc, other)


class TestConcurrentSubmitRace:
    def test_exact_mix_of_accepts_and_queue_full(self, tmp_path):
        queue_limit = 4
        extra = 8
        config = ServiceConfig(
            tmp_path, queue_limit=queue_limit, workers=1, port=None
        )
        svc = AuditService(config)
        gate = threading.Event()
        original = svc._execute

        def gated(job):
            gate.wait(timeout=60)
            return original(job)

        svc._execute = gated
        with svc:
            # Park the single worker on a blocker so the queue level is
            # exactly controlled by our submissions.
            svc.submit(_job("blocker"))
            deadline = 60.0
            import time as _time

            start = _time.monotonic()
            while svc.record("blocker").state is not JobState.RUNNING:
                assert _time.monotonic() - start < deadline
                _time.sleep(0.001)

            barrier = threading.Barrier(queue_limit + extra)
            outcomes: "list[tuple[str, str]]" = []
            lock = threading.Lock()

            def submit(job_id: str) -> None:
                barrier.wait(timeout=30)
                try:
                    svc.submit(_job(job_id))
                except JobRejectedError as exc:
                    with lock:
                        outcomes.append((job_id, exc.reason))
                else:
                    with lock:
                        outcomes.append((job_id, "accepted"))

            threads = [
                threading.Thread(target=submit, args=(f"c{i}",))
                for i in range(queue_limit + extra)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()

            accepted = [j for j, outcome in outcomes if outcome == "accepted"]
            rejected = [(j, r) for j, r in outcomes if r != "accepted"]
            assert len(accepted) == queue_limit  # exactly the queue capacity
            assert len(rejected) == extra
            assert {reason for _, reason in rejected} == {"queue_full"}
            gate.set()
            assert svc.drain(timeout=120)
        # Journal invariant: one submit record per accepted job (plus the
        # blocker), none duplicated, none lost, all DONE.
        journal = JobJournal(tmp_path / "journal.jsonl")
        submits = [
            event["job"]["id"]
            for event in journal.read_records()[1:]
            if event["type"] == "submit"
        ]
        assert sorted(submits) == sorted(accepted + ["blocker"])
        assert len(set(submits)) == len(submits)
        replayed = journal.replay()
        assert all(replayed[j].state is JobState.DONE for j in submits)


class TestJournalGroupCommit:
    def test_unsynced_appends_become_durable_on_sync(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            for i in range(5):
                journal.append(
                    {"type": "mpop_create", "ts": float(i),
                     "spec": {"id": f"m{i}"}},
                    sync=False,
                )
            journal.sync()
        records = JobJournal(path).read_records()
        assert [r.get("spec", {}).get("id") for r in records[1:]] == [
            f"m{i}" for i in range(5)
        ]

    def test_concurrent_durable_appends_all_land(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            def hammer(base: int) -> None:
                for i in range(25):
                    journal.append(
                        {"type": "mpop_create", "ts": 0.0,
                         "spec": {"id": f"t{base}-{i}"}},
                    )

            threads = [
                threading.Thread(target=hammer, args=(t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        records = JobJournal(path).read_records()[1:]
        ids = [r["spec"]["id"] for r in records]
        assert len(ids) == 100
        assert len(set(ids)) == 100  # no torn/interleaved lines

    def test_close_syncs_pending_writes(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path).open()
        journal.append(
            {"type": "mpop_create", "ts": 0.0, "spec": {"id": "m"}}, sync=False
        )
        journal.close()
        assert len(JobJournal(path).read_records()) == 2


class TestJobListingFilters:
    @pytest.fixture()
    def loaded_service(self, tmp_path):
        svc = AuditService(
            ServiceConfig(tmp_path, queue_limit=16, workers=1, port=None)
        )
        with svc:
            svc.submit(_job("a1", tenant="acme"))
            svc.submit(_job("a2", tenant="acme"))
            svc.submit(_job("b1", tenant="bravo"))
            assert svc.drain(timeout=120)
            yield svc

    def test_state_kind_tenant_and_limit(self, loaded_service):
        svc = loaded_service
        assert len(svc.jobs_snapshot(state="DONE")) == 3
        assert svc.jobs_snapshot(state="PENDING") == []
        assert len(svc.jobs_snapshot(kind="audit")) == 3
        assert svc.jobs_snapshot(kind="mitigate") == []
        assert [j["id"] for j in svc.jobs_snapshot(tenant="acme")] == ["a1", "a2"]
        # limit keeps the most recently submitted matches.
        assert [j["id"] for j in svc.jobs_snapshot(limit=2)] == ["a2", "b1"]

    def test_unknown_filter_values_raise(self, loaded_service):
        with pytest.raises(ServiceError, match="state"):
            loaded_service.jobs_snapshot(state="RUNNING_FAST")
        with pytest.raises(ServiceError, match="kind"):
            loaded_service.jobs_snapshot(kind="nope")
        with pytest.raises(ServiceError, match="limit"):
            loaded_service.jobs_snapshot(limit=0)

    def test_http_dispatch_filters_and_envelope(self, loaded_service):
        status, payload, api_v1 = dispatch(
            loaded_service, "GET", "/v1/jobs?state=DONE&tenant=acme&limit=1", b""
        )
        assert (status, api_v1) == (200, True)
        assert [j["id"] for j in payload["jobs"]] == ["a2"]
        status, payload, _ = dispatch(
            loaded_service, "GET", "/v1/jobs?state=BOGUS", b""
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_spec"
        status, payload, _ = dispatch(
            loaded_service, "GET", "/v1/jobs?frobnicate=1", b""
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_spec"


class TestTenantField:
    def test_default_and_roundtrip(self):
        job = _job("t1")
        assert job.tenant == "default"
        assert AuditJob.from_dict(job.to_dict()).tenant == "default"

    def test_absent_in_old_journal_payloads(self):
        payload = _job("t2").to_dict()
        del payload["tenant"]  # pre-PR-9 journal record
        assert AuditJob.from_dict(payload).tenant == "default"

    def test_invalid_tenant_rejected(self):
        with pytest.raises(ServiceError, match="tenant"):
            _job("t3", tenant="no spaces allowed")


class TestServiceConfigKnobs:
    def test_validation(self, tmp_path):
        with pytest.raises(ServiceError, match="rate_limit"):
            ServiceConfig(tmp_path, rate_limit=0.0)
        with pytest.raises(ServiceError, match="batch_max"):
            ServiceConfig(tmp_path, batch_max=0)
        with pytest.raises(ServiceError, match="weight"):
            ServiceConfig(tmp_path, tenant_weights={"t": -1})

    def test_burst_defaults_to_ceil_of_rate(self, tmp_path):
        assert ServiceConfig(tmp_path, rate_limit=2.5).rate_limit_burst == 3
        assert ServiceConfig(tmp_path, rate_limit=0.5).rate_limit_burst == 1
        assert ServiceConfig(tmp_path).rate_limit_burst is None


class TestKeepAlive:
    def test_one_connection_serves_many_requests(self, tmp_path):
        import http.client

        svc = AuditService(
            ServiceConfig(tmp_path, queue_limit=4, workers=1, port=0)
        ).start()
        try:
            host, port = svc.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                for _ in range(3):  # same TCP connection, three round-trips
                    conn.request("GET", "/v1/healthz")
                    response = conn.getresponse()
                    body = json.loads(response.read())
                    assert response.status == 200
                    assert body["status"] == "ok"
            finally:
                conn.close()
        finally:
            svc.stop()


class TestSchedulerCoalescing:
    def test_get_batch_pulls_same_key_followers_in_order(self):
        scheduler = TenantScheduler()
        scheduler.put("a", 0, "a1", key="K")
        scheduler.put("b", 0, "b1", key="K")
        scheduler.put("a", 0, "a2", key="OTHER")
        scheduler.put("c", 0, "c1", key="K")
        batch = scheduler.get_batch(8, timeout=0.1)
        # Leader is the fair-share pick; followers come out of the key
        # index in submission order, across tenants.
        assert batch == ["a1", "b1", "c1"]
        assert len(scheduler) == 1
        assert scheduler.get(timeout=0.1) == "a2"

    def test_followers_leave_ghosts_that_get_skips(self):
        scheduler = TenantScheduler()
        for i in range(3):
            scheduler.put("t", 0, f"j{i}", key="K")
        assert scheduler.get_batch(2, timeout=0.1) == ["j0", "j1"]
        assert len(scheduler) == 1
        # j1's heap entry is a ghost now; get() must serve j2, not j1.
        assert scheduler.get(timeout=0.1) == "j2"
        assert scheduler.get(timeout=0.05) is None

    def test_retried_job_requeues_behind_its_own_ghost(self):
        scheduler = TenantScheduler()
        scheduler.put("t", 0, "a", key="K")
        scheduler.put("t", 0, "b", key="K")
        assert scheduler.get_batch(2, timeout=0.1) == ["a", "b"]
        # The batch failed and "b" retries: its fresh entry sits behind
        # the ghost left by the follower take, and must still be served.
        scheduler.put("t", 0, "b", key="K")
        assert scheduler.get(timeout=0.1) == "b"
        assert scheduler.get(timeout=0.05) is None

    def test_batch_max_one_and_keyless_jobs_never_coalesce(self):
        scheduler = TenantScheduler()
        scheduler.put("t", 0, "k1", key="K")
        scheduler.put("t", 0, "k2", key="K")
        assert scheduler.get_batch(1, timeout=0.1) == ["k1"]
        assert scheduler.get_batch(8, timeout=0.1) == ["k2"]
        scheduler.put("t", 0, "plain1")
        scheduler.put("t", 0, "plain2")
        assert scheduler.get_batch(8, timeout=0.1) == ["plain1"]

    def test_take_matching_skips_ghosts(self):
        scheduler = TenantScheduler()
        for i in range(3):
            scheduler.put("t", 0, f"j{i}", key="K")
        assert scheduler.get_batch(2, timeout=0.1) == ["j0", "j1"]
        assert scheduler.take_matching(lambda _: True, 5) == ["j2"]
        assert len(scheduler) == 0

    def test_batch_followers_charge_their_tenants_strides(self):
        # Weight 0.5 makes one 'a' dispatch cost 2.0 strides — the same
        # as leader + follower for weight-1 'b'.
        scheduler = TenantScheduler({"a": 0.5, "b": 1.0})
        scheduler.put("b", 0, "b1", key="K")
        scheduler.put("b", 0, "b2", key="K")
        scheduler.put("b", 0, "b3")
        scheduler.put("a", 0, "a1")
        scheduler.put("a", 0, "a2")
        assert scheduler.get(timeout=0.1) == "a1"  # (0.0, a) ties ahead of b
        assert scheduler.get_batch(8, timeout=0.1) == ["b1", "b2"]
        # The follower charged b's stride to 2.0, tying it with a — so the
        # name tie-break serves a2 next.  Had the follower ridden free,
        # b3 (at 1.0) would have gone first.
        assert scheduler.get(timeout=0.1) == "a2"
        assert scheduler.get(timeout=0.1) == "b3"


class TestBulkSubmit:
    def test_submit_many_mixes_accepts_and_typed_rejections(self, tmp_path):
        config = ServiceConfig(tmp_path, queue_limit=3, workers=1, port=None)
        svc = AuditService(config)
        gate = threading.Event()
        original = svc._execute

        def gated(job):
            gate.wait(timeout=60)
            return original(job)

        svc._execute = gated
        with svc:
            # Park the single worker on a blocker so the queue depth seen
            # by the bulk capacity checks is deterministic.
            svc.submit(_job("blocker", seed=99))
            for _ in range(200):
                if svc.record("blocker").state is JobState.RUNNING:
                    break
                threading.Event().wait(0.01)
            assert svc.record("blocker").state is JobState.RUNNING
            specs = [
                _job("ok1").to_dict(),
                {"id": "bad", "scenario": "no-such-scenario"},
                _job("ok2").to_dict(),
                _job("ok1").to_dict(),  # duplicate of the first
                _job("ok3").to_dict(),
                _job("overflow").to_dict(),  # fourth slot of a 3-job queue
            ]
            results = svc.submit_many(specs)
            assert [type(r).__name__ for r in results] == [
                "JobRecord", "JobRejectedError", "JobRecord",
                "JobRejectedError", "JobRecord", "JobRejectedError",
            ]
            assert results[1].reason == "invalid_spec"
            assert results[3].reason == "duplicate_id"
            assert results[5].reason == "queue_full"
            gate.set()
            assert svc.drain(timeout=120)
            for job_id in ("blocker", "ok1", "ok2", "ok3"):
                assert svc.record(job_id).state is JobState.DONE
        # Only the accepted specs ever reached the journal.
        replayed = JobJournal(tmp_path / "journal.jsonl").replay()
        assert sorted(replayed) == ["blocker", "ok1", "ok2", "ok3"]

    def test_batch_route_reports_per_item_outcomes(self, tmp_path):
        config = ServiceConfig(tmp_path, queue_limit=16, workers=1, port=None)
        with AuditService(config) as svc:
            body = json.dumps({
                "jobs": [
                    _job("r1").to_dict(),
                    {"id": "junk", "scenario": "no-such-scenario"},
                    _job("r2").to_dict(),
                ]
            }).encode()
            status, payload, api_v1 = dispatch(svc, "POST", "/v1/jobs/batch", body)
            assert (status, api_v1) == (202, True)
            assert payload["accepted"] == 2
            assert payload["rejected"] == 1
            assert [sorted(item) for item in payload["results"]] == [
                ["job"], ["error"], ["job"],
            ]
            assert payload["results"][1]["error"]["code"] == "invalid_spec"
            assert payload["results"][0]["job"]["id"] == "r1"
            assert svc.drain(timeout=120)

    def test_batch_route_rejects_malformed_bodies(self, tmp_path):
        config = ServiceConfig(tmp_path, queue_limit=4, workers=1, port=None)
        with AuditService(config) as svc:
            for body in (b"{}", b'{"jobs": []}', b'{"jobs": "nope"}', b"[1]"):
                status, payload, _ = dispatch(svc, "POST", "/v1/jobs/batch", body)
                assert status == 400
                assert payload["error"]["code"] == "invalid_spec"
            assert svc.drain(timeout=60)
