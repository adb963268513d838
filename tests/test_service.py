"""Campaign service: coordinator fan-out, fault tolerance, HTTP API.

The service's headline claim — an HTTP-submitted campaign executed by
several worker processes produces a store **bit-identical** (keys +
record digests, :func:`~repro.experiments.store.store_digest`) to a
single-process ``run_spec`` of the same spec, including after killing
and replacing a worker mid-campaign — is locked here end to end:

* coordinator-level: multi-worker == serial oracle; kill a worker
  mid-shard and the replacement resumes to the same digests;
* HTTP-level: submit/status/records/cancel through a live
  ``ThreadingHTTPServer`` on an ephemeral port, driven by the stdlib
  :class:`~repro.service.client.ServiceClient`;
* edge cases: invalid specs answer 400 (job never starts), unknown ids
  404, a taken port raises the one-line actionable error, and serving
  specs run as single-worker jobs.

Workers are real spawned processes, so these tests are the slowest in
the suite — grids stay tiny and the store is SQLite (the concurrent
writer backend the service defaults to).
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

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

WAIT = 180.0  # spawned workers import the package (~1s each); be generous


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


def _oracle_digest(tmp_path, spec_dict):
    """Single-process run of the same spec: the bit-identity reference."""
    root = tmp_path / "oracle"
    spec = CampaignSpec.from_dict(spec_dict).with_execution(
        store=str(root), store_backend="sqlite", resume=True
    )
    run_spec(spec)
    return store_digest(open_store(root, backend="sqlite"))


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
        # A grid big enough that workers are still mid-shard when the kill
        # lands (64 scenarios across 2 workers).
        spec_dict = _spec_dict(
            name="svc-kill",
            schemes=("fp16", "mokey", "gobo", "q8bert"),
            batch_sizes=(1, 2, 3, 4),
        )
        spec_dict["axes"]["buffer_bytes"] = [131072, 262144]
        spec_dict["axes"]["sequence_lengths"] = [16, 32]
        oracle = _oracle_digest(tmp_path, spec_dict)
        job_id = coordinator.submit(spec_dict, workers=2)
        # Kill shard 0's worker as soon as it has made some progress (so
        # the shard is provably mid-flight, not pending or done).
        deadline = time.monotonic() + WAIT
        killed = False
        while not killed and time.monotonic() < deadline:
            status = coordinator.status(job_id)
            if status["state"] in TERMINAL_STATES:
                break
            shard0 = status["shards"][0]
            if shard0["state"] == "running" and 0 < shard0["completed"] < shard0["total"]:
                killed = coordinator.kill_worker(job_id, 0)
            time.sleep(0.02)
        status = coordinator.wait(job_id, timeout=WAIT)
        assert status["state"] == "completed", status["error"]
        service_digest = store_digest(
            open_store(coordinator.store_root, backend="sqlite")
        )
        assert service_digest == oracle
        if killed:  # the kill can race with shard completion; when it
            # landed, a replacement worker must have finished the shard
            assert status["restarts"] >= 1
            assert status["shards"][0]["state"] == "done"

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
        spec_dict = _spec_dict(
            name="svc-http-kill",
            schemes=("fp16", "mokey", "gobo", "q8bert"),
            batch_sizes=(1, 2, 3, 4),
        )
        spec_dict["axes"]["sequence_lengths"] = [16, 32]
        oracle = _oracle_digest(tmp_path, spec_dict)
        job_id = client.submit(spec_dict, workers=2)
        deadline = time.monotonic() + WAIT
        while time.monotonic() < deadline:
            status = client.status(job_id)
            if status["state"] in TERMINAL_STATES:
                break
            shard0 = status["shards"][0]
            if shard0["state"] == "running" and shard0["completed"] > 0:
                if client.kill_worker(job_id, shard=0):
                    break
            time.sleep(0.02)
        final = client.wait(job_id, timeout=WAIT)
        assert final["state"] == "completed", final["error"]
        rows = list(client.results(job_id))
        assert {row["key"]: row["digest"] for row in rows} == oracle

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
