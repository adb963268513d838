"""HTTP front of the campaign service: stdlib server, JSON API.

Routes (all under ``/api/v1``)::

    GET  /api/v1/health                      liveness + job counts
    GET  /api/v1/campaigns                   list job summaries
    POST /api/v1/campaigns                   submit {"spec": ..., "kind"?, "workers"?}
    GET  /api/v1/campaigns/{id}              structured status (shards, counters)
    GET  /api/v1/campaigns/{id}/records      completed records as NDJSON, grid order
    POST /api/v1/campaigns/{id}/cancel       stop after in-flight records
    POST /api/v1/campaigns/{id}/kill-worker  SIGKILL one shard's worker
                                             ({"shard": i}; fault-injection hook)

Built on :class:`http.server.ThreadingHTTPServer` — no third-party web
framework, matching the repo's no-new-dependencies rule.  Each request
runs on its own thread against the shared :class:`~repro.service.jobs.Coordinator`,
whose locking makes status/submit/cancel safe under concurrency.  Errors
are one-line JSON ``{"error": ...}`` with 400 (bad payload, bad
``Content-Length`` or failed validation), 404 (unknown id), 413 (body
over :data:`MAX_BODY_BYTES`, refused unread) or 500 (any other failure
inside a handler, its traceback kept for the ``--verbose`` request log)
— never an HTML page, an empty reply or a hang.

:func:`run_daemon` owns the graceful-shutdown contract: ``serve_forever``
runs on a background thread while the main thread waits for
SIGTERM/SIGINT, then stops accepting requests, drains the coordinator's
worker pool (in-flight shard writes flush — persist-before-yield means
every record a worker reported is already in the store — then every
worker exits) and exits 0.
"""

from __future__ import annotations

import errno
import json
import signal
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple

from repro.service.jobs import Coordinator, ServiceError

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "MAX_BODY_BYTES",
    "make_server",
    "run_daemon",
]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8321
#: Largest request body the daemon reads; longer ones get a 413 unread.
MAX_BODY_BYTES = 1 << 20

_API_PREFIX = "/api/v1"


class _Handler(BaseHTTPRequestHandler):
    """Routes one request against the bound coordinator."""

    # Injected by make_server() onto a per-server subclass.
    coordinator: Coordinator = None  # type: ignore[assignment]
    quiet: bool = True
    # Set once a status line has gone out; an error after it cannot answer.
    _responded: bool = False

    # -- plumbing --------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - exercised only with --verbose
            super().log_message(format, *args)

    def send_response(self, code: int, message: Optional[str] = None) -> None:
        self._responded = True
        super().send_response(code, message)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_json(self) -> Optional[Dict[str, Any]]:
        """Parse the request body as a JSON object, or answer 400/413."""
        header = self.headers.get("Content-Length", "0")
        try:
            length = int(header)
        except ValueError:
            length = -1
        # Both refusals leave the body unread; the HTTP/1.0 server closes
        # the connection after every response, so nothing parses it later.
        if length < 0:
            self._send_error_json(
                400, f"Content-Length must be a non-negative integer, got {header!r}"
            )
            return None
        if length > MAX_BODY_BYTES:
            self._send_error_json(
                413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
            return None
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_error_json(400, f"request body is not valid JSON: {exc}")
            return None
        if not isinstance(payload, dict):
            self._send_error_json(400, "request body must be a JSON object")
            return None
        return payload

    def _route(self) -> Tuple[str, ...]:
        path = self.path.split("?", 1)[0].rstrip("/")
        if not path.startswith(_API_PREFIX):
            return ()
        return tuple(part for part in path[len(_API_PREFIX):].split("/") if part)

    def _dispatch(self, route: Callable[[Tuple[str, ...]], None]) -> None:
        """Run one verb's router; every failure becomes a JSON error line."""
        try:
            route(self._route())
        except ServiceError as exc:
            self._fail(404, str(exc))
        except Exception as exc:  # noqa: BLE001 - the 500 boundary
            # The traceback goes to the request log (shown with --verbose).
            self.log_error("%s %s failed:\n%s", self.command, self.path, traceback.format_exc())
            self._fail(500, f"internal error: {type(exc).__name__}: {exc}")

    def _fail(self, status: int, message: str) -> None:
        if self._responded:  # mid-response: closing the connection is all that is left
            return
        try:
            self._send_error_json(status, " ".join(message.split()))
        except OSError:  # the client is gone; nothing left to tell it
            pass

    # -- verbs -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._post)

    def _get(self, parts: Tuple[str, ...]) -> None:
        if parts == ("health",):
            jobs = self.coordinator.jobs()
            self._send_json(200, {
                "status": "ok",
                "jobs": len(jobs),
                "active": sum(
                    1 for job in jobs if job["state"] in ("pending", "running")
                ),
                "store": str(self.coordinator.store_root),
                "store_backend": self.coordinator.store_backend,
            })
        elif parts == ("campaigns",):
            self._send_json(200, {"campaigns": self.coordinator.jobs()})
        elif len(parts) == 2 and parts[0] == "campaigns":
            self._send_json(200, self.coordinator.status(parts[1]))
        elif len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "records":
            self._stream_records(parts[1])
        else:
            self._send_error_json(404, f"no such route: GET {self.path}")

    def _post(self, parts: Tuple[str, ...]) -> None:
        if parts == ("campaigns",):
            self._submit()
        elif len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "cancel":
            self._send_json(200, self.coordinator.cancel(parts[1]))
        elif (
            len(parts) == 3 and parts[0] == "campaigns"
            and parts[2] == "kill-worker"
        ):
            self._kill_worker(parts[1])
        else:
            self._send_error_json(404, f"no such route: POST {self.path}")

    # -- handlers --------------------------------------------------------

    def _submit(self) -> None:
        payload = self._read_json()
        if payload is None:
            return
        spec_dict = payload.get("spec")
        if not isinstance(spec_dict, dict):
            self._send_error_json(
                400, "payload must be {'spec': {...}, 'kind'?: str, 'workers'?: int}"
            )
            return
        try:
            job_id = self.coordinator.submit(
                spec_dict,
                kind=payload.get("kind"),
                workers=payload.get("workers"),
            )
        except (ServiceError, ValueError, KeyError, TypeError) as exc:
            self._send_error_json(400, f"spec rejected: {exc}")
            return
        self._send_json(201, self.coordinator.status(job_id))

    def _stream_records(self, job_id: str) -> None:
        # records() is a generator: force the unknown-id check now, while
        # a 404 can still be sent (headers go out before the first line).
        self.coordinator.status(job_id)
        records = self.coordinator.records(job_id)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        for record in records:
            self.wfile.write(
                (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
            )

    def _kill_worker(self, job_id: str) -> None:
        payload = self._read_json()
        if payload is None:
            return
        shard = payload.get("shard", 0)
        if not isinstance(shard, int) or isinstance(shard, bool):
            self._send_error_json(400, f"shard must be an integer, got {shard!r}")
            return
        killed = self.coordinator.kill_worker(job_id, shard)
        self._send_json(200, {"id": job_id, "shard": shard, "killed": killed})


def make_server(
    host: str,
    port: int,
    coordinator: Coordinator,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """Bind the service; raise a one-line :class:`ServiceError` if taken.

    Pass ``port=0`` to bind an ephemeral port (tests); the chosen port is
    ``server.server_address[1]``.
    """
    handler = type(
        "BoundHandler", (_Handler,), {"coordinator": coordinator, "quiet": quiet}
    )
    try:
        server = ThreadingHTTPServer((host, port), handler)
    except OSError as exc:
        if exc.errno in (errno.EADDRINUSE, errno.EACCES):
            raise ServiceError(
                f"cannot bind {host}:{port} ({exc.strerror or exc}) — is another "
                f"'repro serve' already running? Stop it or pick a different --port."
            ) from None
        raise
    server.daemon_threads = True
    return server


def run_daemon(server: ThreadingHTTPServer, coordinator: Coordinator) -> None:
    """Serve until SIGTERM/SIGINT, then drain workers and return.

    ``serve_forever`` runs on a background thread; the main thread parks
    on an event flipped by the signal handler.  (Calling
    ``server.shutdown()`` from a handler running *on* the serve thread
    deadlocks — hence the split.)  Shutdown order: stop accepting
    requests, ask every worker to stop, wait for in-flight shard writes
    to flush, close the socket.  Must be called from the main thread
    (signal handlers can only be installed there).
    """
    stop = threading.Event()

    def _handle(signum: int, frame: Any) -> None:  # noqa: ARG001
        stop.set()

    previous = {
        sig: signal.signal(sig, _handle) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    serve_thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    serve_thread.start()
    try:
        stop.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.shutdown()
        serve_thread.join(5.0)
        coordinator.drain()
        server.server_close()
