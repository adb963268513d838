"""Campaign service: coordinator fan-out, fault tolerance, HTTP API.

The service's headline claim — an HTTP-submitted campaign executed by
several worker processes produces a store **bit-identical** (keys +
record digests, :func:`~repro.experiments.store.store_digest`) to a
single-process ``run_spec`` of the same spec, including after killing
and replacing a worker mid-campaign — is locked here end to end:

* coordinator-level: multi-worker == serial oracle; kill a worker
  mid-shard and the replacement resumes to the same digests;
* worker pool: later jobs run on the first job's workers, a killed or
  cancelled job leaves the pool serving, and ``drain()`` leaves no child
  process behind;
* HTTP-level: submit/status/records/cancel through a live
  ``ThreadingHTTPServer`` on an ephemeral port, driven by the stdlib
  :class:`~repro.service.client.ServiceClient`;
* edge cases: invalid specs answer 400 (job never starts), unknown ids
  404, a taken port raises the one-line actionable error, and serving
  specs run as single-worker jobs.

Workers are real spawned processes, so these tests are the slowest in
the suite — grids stay small and the store is SQLite (the concurrent
writer backend the service defaults to).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.experiments import CampaignSpec, open_store, run_spec, scenario_key, store_digest
from repro.service import (
    JOB_STATES,
    TERMINAL_STATES,
    Coordinator,
    ServiceClient,
    ServiceError,
    make_server,
)
from repro.service.daemon import MAX_BODY_BYTES

# A deadline, not an expected duration: a cold pool worker imports the
# package once (well under a second), and a warm one serves a small grid
# in milliseconds.
WAIT = 180.0
#: Fresh grids submitted before a kill test gives up on landing its kill.
KILL_ATTEMPTS = 20


def _spec_dict(name="svc-test", schemes=("fp16", "mokey"), batch_sizes=(1, 2)):
    return {
        "name": name,
        "axes": {
            "workloads": [["bert-base", "mnli", None]],
            "schemes": list(schemes),
            "designs": ["mokey"],
            "batch_sizes": list(batch_sizes),
            "buffer_bytes": [262144],
            "sequence_lengths": [32],
        },
    }


def _fresh_grid(name, buffer_bytes):
    """A 32-scenario grid at a buffer size no earlier job has simulated."""
    spec_dict = _spec_dict(
        name=name, schemes=("fp16", "mokey", "gobo", "q8bert"), batch_sizes=range(1, 9)
    )
    spec_dict["axes"]["buffer_bytes"] = [buffer_bytes]
    return spec_dict


def _oracle_digest(tmp_path, *spec_dicts):
    """Single-process runs of the same specs: the bit-identity reference."""
    root = tmp_path / "oracle"
    for spec_dict in spec_dicts:
        spec = CampaignSpec.from_dict(spec_dict).with_execution(
            store=str(root), store_backend="sqlite", resume=True
        )
        run_spec(spec)
    return store_digest(open_store(root, backend="sqlite"))


def _submit_until_killed(submit, status, kill_worker, wait):
    """Submit fresh grids until a SIGKILL lands on shard 0 mid-shard.

    A warm worker serves a 16-scenario shard in milliseconds, so one grid
    may finish before the poll sees it mid-flight, or its worker may
    finish the shard between the poll and the kill; each retry uses a new
    ``buffer_bytes`` value, so every grid is simulated afresh.  A kill
    has landed when the job then needed a replacement worker
    (``restarts >= 1``).  Returns every submitted spec dict and the
    final status of the job whose worker was killed mid-shard.
    """
    specs = []
    for attempt in range(KILL_ATTEMPTS):
        spec_dict = _fresh_grid(f"svc-kill-{attempt}", 131072 + 4096 * attempt)
        specs.append(spec_dict)
        job_id = submit(spec_dict)
        killed = False
        deadline = time.monotonic() + WAIT
        while not killed and time.monotonic() < deadline:
            current = status(job_id)
            if current["state"] in TERMINAL_STATES:
                break
            shard0 = current["shards"][0]
            killed = (
                shard0["state"] == "running"
                and 0 < shard0["completed"] <= shard0["total"] // 2
                and kill_worker(job_id, 0)
            )
            time.sleep(0.001)
        final = wait(job_id)
        assert final["state"] == "completed", final["error"]
        if killed and final["restarts"] >= 1:
            return specs, final
    pytest.fail(f"no kill landed mid-shard in {KILL_ATTEMPTS} fresh grids")


def _children():
    """Pids of this process's live child processes (the worker pool)."""
    return {proc.pid for proc in multiprocessing.active_children()}


@pytest.fixture
def coordinator(tmp_path):
    co = Coordinator(tmp_path / "svc-store", store_backend="sqlite")
    yield co
    co.drain()


@pytest.fixture
def service(tmp_path):
    """A live daemon on an ephemeral port + a client bound to it."""
    co = Coordinator(tmp_path / "svc-store", store_backend="sqlite")
    server = make_server("127.0.0.1", 0, co)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    yield co, server, client
    server.shutdown()
    thread.join(5.0)
    co.drain()
    server.server_close()


def _raw_exchange(server, request: bytes, timeout: float = 10.0):
    """Send raw request bytes; return ``(status, json_body)`` of the reply.

    The write side stays open, so a server that waits for a body the
    client never sends times out here instead of answering.
    """
    port = server.server_address[1]
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body


def _post_head(path: str, content_length: str) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {content_length}\r\n\r\n"
    ).encode("ascii")


class TestCoordinator:
    def test_multi_worker_equals_serial_oracle(self, tmp_path, coordinator):
        spec_dict = _spec_dict()
        oracle = _oracle_digest(tmp_path, spec_dict)
        job_id = coordinator.submit(spec_dict, workers=2)
        status = coordinator.wait(job_id, timeout=WAIT)
        assert status["state"] == "completed"
        assert status["error"] is None
        assert status["progress"]["completed"] == status["progress"]["total"] == 4
        service_digest = store_digest(
            open_store(coordinator.store_root, backend="sqlite")
        )
        assert service_digest == oracle

    def test_records_stream_in_grid_order_with_digests(self, tmp_path, coordinator):
        spec_dict = _spec_dict()
        job_id = coordinator.submit(spec_dict, workers=2)
        coordinator.wait(job_id, timeout=WAIT)
        rows = list(coordinator.records(job_id))
        spec = CampaignSpec.from_dict(spec_dict)
        assert [row["key"] for row in rows] == [
            scenario_key(s) for s in spec.scenarios()
        ]
        stored = store_digest(open_store(coordinator.store_root, backend="sqlite"))
        assert {row["key"]: row["digest"] for row in rows} == stored
        for row in rows:
            assert set(row) >= {"key", "digest", "scenario", "result"}

    def test_kill_one_worker_resumes_bit_identically(self, tmp_path, coordinator):
        specs, status = _submit_until_killed(
            lambda spec_dict: coordinator.submit(spec_dict, workers=2),
            coordinator.status,
            coordinator.kill_worker,
            lambda job_id: coordinator.wait(job_id, timeout=WAIT),
        )
        assert status["restarts"] >= 1
        assert status["shards"][0]["state"] == "done"
        service_digest = store_digest(
            open_store(coordinator.store_root, backend="sqlite")
        )
        assert service_digest == _oracle_digest(tmp_path, *specs)

    def test_cancel_stops_workers_and_keeps_persisted_records(
        self, tmp_path, coordinator
    ):
        spec_dict = _spec_dict(
            name="svc-cancel",
            schemes=("fp16", "mokey", "gobo", "q8bert"),
            batch_sizes=(1, 2, 3, 4),
        )
        spec_dict["axes"]["sequence_lengths"] = [16, 32]
        job_id = coordinator.submit(spec_dict, workers=2)
        deadline = time.monotonic() + WAIT
        while time.monotonic() < deadline:
            status = coordinator.status(job_id)
            if status["state"] in TERMINAL_STATES or status["progress"]["completed"] > 0:
                break
            time.sleep(0.02)
        coordinator.cancel(job_id)
        status = coordinator.wait(job_id, timeout=WAIT)
        # Cancellation can race with completion on a fast grid; either
        # terminal state is legitimate, but nothing may be lost.
        assert status["state"] in ("cancelled", "completed")
        persisted = store_digest(open_store(coordinator.store_root, backend="sqlite"))
        assert len(persisted) >= status["progress"]["completed"] > 0
        rows = list(coordinator.records(job_id))
        assert {row["key"] for row in rows} <= set(persisted)

    def test_submit_rejects_bad_specs_before_starting_anything(self, coordinator):
        with pytest.raises(ValueError, match="schemes"):
            coordinator.submit(
                {"name": "bad", "axes": {"schemes": ["no-such-scheme"]}}
            )
        with pytest.raises(ServiceError, match="workers"):
            coordinator.submit(_spec_dict(), workers=0)
        with pytest.raises(ServiceError, match="kind"):
            coordinator.submit(_spec_dict(), kind="nonsense")
        assert coordinator.jobs() == []

    def test_zero_default_workers_is_refused_not_clamped(self, tmp_path, capsys):
        with pytest.raises(ServiceError, match="workers must be >= 1, got 0"):
            Coordinator(tmp_path / "svc-store", default_workers=0)
        # The daemon refuses before binding: one error line, exit 2, no banner.
        argv = ["serve", "--port", "0", "--workers", "0", "--store", str(tmp_path / "s")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: workers must be >= 1, got 0\n"

    def test_unknown_job_id_raises_service_error(self, coordinator):
        with pytest.raises(ServiceError, match="unknown campaign id"):
            coordinator.status("campaign-9999")

    def test_more_workers_than_scenarios_completes_with_empty_shards(
        self, tmp_path, coordinator
    ):
        spec_dict = _spec_dict(schemes=("fp16",), batch_sizes=(1,))
        oracle = _oracle_digest(tmp_path, spec_dict)
        job_id = coordinator.submit(spec_dict, workers=3)
        status = coordinator.wait(job_id, timeout=WAIT)
        assert status["state"] == "completed"
        assert [shard["total"] for shard in status["shards"]] == [1, 0, 0]
        assert store_digest(open_store(coordinator.store_root, backend="sqlite")) == oracle

    def test_job_states_vocabulary_is_registered(self):
        assert set(TERMINAL_STATES) <= set(JOB_STATES)


class TestWorkerPool:
    """Workers start once per coordinator and serve shards of any job."""

    def test_second_job_runs_on_the_first_jobs_workers(self, coordinator):
        first = coordinator.submit(_fresh_grid("svc-pool-1", 131072), workers=2)
        assert coordinator.wait(first, timeout=WAIT)["state"] == "completed"
        pool = _children()
        assert len(pool) == 2  # idle between jobs, not exited
        second = coordinator.submit(_fresh_grid("svc-pool-2", 135168), workers=2)
        seen = set()
        while (status := coordinator.status(second))["state"] not in TERMINAL_STATES:
            seen |= {shard["pid"] for shard in status["shards"]} - {None}
            time.sleep(0.001)
        assert status["state"] == "completed"
        assert all(shard["progress"]["simulated"] > 0 for shard in status["shards"])
        assert seen <= pool
        assert _children() == pool

    def test_killed_pooled_worker_is_replaced_for_later_jobs(self, tmp_path, coordinator):
        specs, status = _submit_until_killed(
            lambda spec_dict: coordinator.submit(spec_dict, workers=2),
            coordinator.status,
            coordinator.kill_worker,
            lambda job_id: coordinator.wait(job_id, timeout=WAIT),
        )
        assert status["restarts"] >= 1
        # The dead worker's shard may have gone to the other, idle worker;
        # either way the pool is back to two live workers once a later job
        # needs two.
        later = _fresh_grid("svc-pool-later", 262144 + 4096)
        status = coordinator.wait(coordinator.submit(later, workers=2), timeout=WAIT)
        assert status["state"] == "completed", status["error"]
        assert status["restarts"] == 0
        assert len(_children()) == 2
        assert store_digest(
            open_store(coordinator.store_root, backend="sqlite")
        ) == _oracle_digest(tmp_path, *specs, later)

    def test_worker_killed_while_idle_is_not_handed_a_shard(self, coordinator):
        first = coordinator.submit(_fresh_grid("svc-idle-1", 131072), workers=2)
        assert coordinator.wait(first, timeout=WAIT)["state"] == "completed"
        victim = multiprocessing.active_children()[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(WAIT)
        second = coordinator.submit(_fresh_grid("svc-idle-2", 135168), workers=2)
        status = coordinator.wait(second, timeout=WAIT)
        assert status["state"] == "completed", status["error"]
        assert status["restarts"] == 0
        assert victim.pid not in _children() and len(_children()) == 2

    def test_cancelling_one_job_leaves_a_concurrent_job_running(self, coordinator):
        # ~1000 scenarios: far more than either worker serves before the
        # cancel lands.
        doomed_dict = _spec_dict(
            name="svc-doomed", schemes=("fp16", "mokey", "gobo", "q8bert"),
            batch_sizes=range(1, 33),
        )
        doomed_dict["axes"]["buffer_bytes"] = [65536 * k for k in range(1, 9)]
        doomed = coordinator.submit(doomed_dict, workers=2)
        survivor = coordinator.submit(_fresh_grid("svc-survivor", 131072 + 4096), workers=2)
        deadline = time.monotonic() + WAIT
        while coordinator.status(doomed)["progress"]["completed"] == 0:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        coordinator.cancel(doomed)
        status = coordinator.wait(survivor, timeout=WAIT)
        assert status["state"] == "completed", status["error"]
        status = coordinator.wait(doomed, timeout=WAIT)
        assert status["state"] == "cancelled", status["error"]
        # The pool grew to cover both jobs, and the stopped workers went
        # back to idle rather than exiting.
        pool = _children()
        assert len(pool) == 4
        again = coordinator.submit(_fresh_grid("svc-after-cancel", 131072 + 8192), workers=4)
        assert coordinator.wait(again, timeout=WAIT)["state"] == "completed"
        assert _children() == pool

    def test_drain_leaves_no_child_processes(self, coordinator):
        job_id = coordinator.submit(_spec_dict(), workers=2)
        assert coordinator.wait(job_id, timeout=WAIT)["state"] == "completed"
        assert len(_children()) == 2
        coordinator.drain()
        assert multiprocessing.active_children() == []


class TestHTTPService:
    def test_submit_poll_stream_over_http(self, tmp_path, service):
        co, _server, client = service
        spec_dict = _spec_dict()
        oracle = _oracle_digest(tmp_path, spec_dict)
        health = client.health()
        assert health["status"] == "ok"
        assert health["store_backend"] == "sqlite"
        job_id = client.submit(spec_dict, workers=2)
        status = client.wait(job_id, timeout=WAIT)
        assert status["state"] == "completed"
        assert status["workers"] == 2
        assert len(status["shards"]) == 2
        rows = list(client.results(job_id))
        assert {row["key"]: row["digest"] for row in rows} == oracle
        listed = client.jobs()
        assert [job["id"] for job in listed] == [job_id]
        assert listed[0]["state"] == "completed"

    def test_kill_worker_over_http_preserves_bit_identity(self, tmp_path, service):
        co, _server, client = service
        specs, final = _submit_until_killed(
            lambda spec_dict: client.submit(spec_dict, workers=2),
            client.status,
            lambda job_id, shard: client.kill_worker(job_id, shard=shard),
            lambda job_id: client.wait(job_id, timeout=WAIT),
        )
        assert final["restarts"] >= 1
        rows = list(client.results(final["id"]))
        assert len(rows) == len(CampaignSpec.from_dict(specs[-1]).scenarios())
        oracle = _oracle_digest(tmp_path, *specs)
        assert {row["key"]: row["digest"] for row in rows}.items() <= oracle.items()
        assert store_digest(open_store(co.store_root, backend="sqlite")) == oracle

    def test_serving_spec_runs_as_single_worker_job(self, service):
        co, _server, client = service
        serving_dict = {
            "name": "svc-serving",
            "model": "bert-base",
            "task": "mnli",
            "schemes": ["fp16"],
            "designs": ["mokey"],
            "buffer_bytes": 262144,
            "trace": {"kind": "poisson", "rate_rps": 200.0, "num_requests": 50, "seed": 0},
            "policy": {"kind": "timeout", "max_batch": 4, "timeout_ms": 5.0},
        }
        job_id = client.submit(serving_dict)  # kind auto-detected
        assert job_id.startswith("serving-")
        status = client.wait(job_id, timeout=WAIT)
        assert status["state"] == "completed"
        assert status["workers"] == 1
        rows = list(client.results(job_id))
        assert len(rows) == 1  # one scheme x design combo
        assert rows[0]["scheme"] == "fp16"

    def test_bad_spec_answers_400_and_unknown_id_404(self, service):
        _co, _server, client = service
        with pytest.raises(ServiceError, match="400"):
            client.submit({"name": "bad", "axes": {"designs": ["no-such-design"]}})
        with pytest.raises(ServiceError, match="404"):
            client.status("campaign-4242")
        with pytest.raises(ServiceError, match="404"):
            list(client.results("campaign-4242"))
        with pytest.raises(ServiceError, match="404"):
            client.cancel("campaign-4242")

    def test_cancel_over_http(self, service):
        _co, _server, client = service
        spec_dict = _spec_dict(
            name="svc-http-cancel",
            schemes=("fp16", "mokey", "gobo", "q8bert"),
            batch_sizes=(1, 2, 3, 4),
        )
        job_id = client.submit(spec_dict, workers=2)
        client.cancel(job_id)
        final = client.wait(job_id, timeout=WAIT)
        assert final["state"] in ("cancelled", "completed")

    def test_taken_port_raises_one_line_actionable_error(self, service, tmp_path):
        co, server, _client = service
        port = server.server_address[1]
        with pytest.raises(ServiceError) as caught:
            make_server("127.0.0.1", port, co)
        message = str(caught.value)
        assert "\n" not in message
        assert f"cannot bind 127.0.0.1:{port}" in message
        assert "--port" in message

    def test_client_reports_unreachable_daemon_plainly(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServiceError, match="is 'repro serve' running"):
            client.health()


class TestRequestBoundaries:
    """Malformed bodies and handler failures answer one JSON line, never hang."""

    @pytest.mark.parametrize("length", ["-3", "-1", "twelve"])
    def test_bad_content_length_answers_400(self, service, length):
        _co, server, _client = service
        status, body = _raw_exchange(server, _post_head("/api/v1/campaigns", length))
        assert status == 400
        error = json.loads(body)["error"]
        assert "Content-Length" in error and "\n" not in error

    def test_oversized_body_answers_413_unread(self, service):
        _co, server, _client = service
        # Only the head is sent: a server that tried to read the body would hang.
        head = _post_head("/api/v1/campaigns", str(MAX_BODY_BYTES + 1))
        status, body = _raw_exchange(server, head)
        assert status == 413
        assert str(MAX_BODY_BYTES) in json.loads(body)["error"]

    def test_body_at_the_limit_is_read(self, service):
        _co, server, _client = service
        payload = b"[" + b" " * (MAX_BODY_BYTES - 2) + b"]"
        request = _post_head("/api/v1/campaigns", str(len(payload))) + payload
        status, body = _raw_exchange(server, request)
        assert status == 400
        assert json.loads(body)["error"] == "request body must be a JSON object"

    @pytest.mark.parametrize(
        "verb, path, target",
        [
            ("GET", "/api/v1/health", "jobs"),
            ("POST", "/api/v1/campaigns/campaign-1/cancel", "cancel"),
        ],
    )
    def test_unexpected_exception_answers_one_line_json_500(
        self, service, monkeypatch, verb, path, target
    ):
        co, server, _client = service

        def broken(*_args, **_kwargs):
            raise RuntimeError("disk on fire\nsecond line")

        monkeypatch.setattr(co, target, broken)
        head = _post_head(path, "0") if verb == "POST" else (
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode("ascii")
        )
        status, body = _raw_exchange(server, head)
        assert status == 500
        assert json.loads(body) == {
            "error": "internal error: RuntimeError: disk on fire second line"
        }
