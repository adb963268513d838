"""Stdlib client for the campaign service (``urllib``, no dependencies).

Mirrors the daemon's routes one method each::

    client = ServiceClient("http://127.0.0.1:8321")
    client.health()
    job_id = client.submit(spec)              # CampaignSpec | ServingSpec | dict
    client.status(job_id)
    client.wait(job_id, timeout=300)
    for record in client.results(job_id):     # NDJSON stream, grid order
        ...
    client.cancel(job_id)

Every HTTP failure — connection refused, 400 on a bad spec, 404 on an
unknown id — surfaces as :class:`~repro.service.jobs.ServiceError`
carrying the daemon's one-line message, so CLI callers can print it
without a traceback.
"""

from __future__ import annotations

import json
import os
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.service.jobs import TERMINAL_STATES, ServiceError

__all__ = ["ServiceClient", "default_url"]

_ENV_URL = "REPRO_SERVICE_URL"


def _interned_object(pairs: List[Any]) -> Dict[str, Any]:
    """A decoded JSON object with interned keys.

    Every record of a result stream has the same schema, so a caller that
    keeps the rows holds each key string once instead of once per row —
    about half of a kept row's memory.
    """
    return {sys.intern(key): value for key, value in pairs}


def default_url() -> str:
    """Service URL: ``$REPRO_SERVICE_URL`` or the daemon's default port."""
    return os.environ.get(_ENV_URL, "http://127.0.0.1:8321")


def _spec_payload(spec: Any) -> Dict[str, Any]:
    """Accept a spec object (anything with ``to_dict``) or a plain dict."""
    if hasattr(spec, "to_dict"):
        return spec.to_dict()
    if isinstance(spec, dict):
        return spec
    raise ServiceError(
        f"spec must be a CampaignSpec, ServingSpec or dict, got {type(spec).__name__}"
    )


class ServiceClient:
    """Talks to one ``repro serve`` daemon over its JSON API."""

    def __init__(self, url: Optional[str] = None, timeout: float = 30.0) -> None:
        self.url = (url or default_url()).rstrip("/")
        self.timeout = timeout

    # -- transport -------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Any:
        url = f"{self.url}/api/v1{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers, method=method)
        try:
            response = urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            raise ServiceError(self._error_message(exc)) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach campaign service at {self.url}: {exc.reason} "
                f"(is 'repro serve' running?)"
            ) from None
        with response:
            return json.loads(response.read().decode("utf-8"))

    @staticmethod
    def _error_message(exc: "urllib.error.HTTPError") -> str:
        try:
            body = json.loads(exc.read().decode("utf-8"))
            return f"{exc.code}: {body['error']}"
        except Exception:  # noqa: BLE001 - non-JSON error body
            return f"{exc.code}: {exc.reason}"

    # -- API -------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def submit(
        self,
        spec: Any,
        kind: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> str:
        """Submit a spec; returns the campaign id (kind is auto-detected)."""
        payload: Dict[str, Any] = {"spec": _spec_payload(spec)}
        if kind is not None:
            payload["kind"] = kind
        if workers is not None:
            payload["workers"] = workers
        return self._request("POST", "/campaigns", payload)["id"]

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/campaigns")["campaigns"]

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/campaigns/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/campaigns/{job_id}/cancel", {})

    def kill_worker(self, job_id: str, shard: int = 0) -> bool:
        """Fault-injection hook: SIGKILL one shard's worker process."""
        response = self._request(
            "POST", f"/campaigns/{job_id}/kill-worker", {"shard": shard}
        )
        return bool(response["killed"])

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll: float = 0.2,
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its final status."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in TERMINAL_STATES:
                return status
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status['state']!r} after {timeout:.0f}s"
                )
            time.sleep(poll)

    def results(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Stream the job's completed records (NDJSON lines, grid order)."""
        url = f"{self.url}/api/v1/campaigns/{job_id}/records"
        request = urllib.request.Request(
            url, headers={"Accept": "application/x-ndjson"}
        )
        try:
            response = urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            raise ServiceError(self._error_message(exc)) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach campaign service at {self.url}: {exc.reason} "
                f"(is 'repro serve' running?)"
            ) from None
        with response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"), object_pairs_hook=_interned_object)
