"""Campaign service coordinator: sharded multi-worker jobs over one store.

The service side of ``repro serve``: a :class:`Coordinator` accepts
:class:`~repro.experiments.spec.CampaignSpec` /
:class:`~repro.serving.spec.ServingSpec` payloads, splits a campaign's
axis grid into deterministic shards
(:func:`~repro.experiments.spec.shard_spec`) and fans the shards out to
**worker processes** that each drive the ordinary streaming engine
(:func:`~repro.experiments.spec.iter_campaign` /
:func:`~repro.serving.spec.iter_serving`) against one shared artifact
store.

Fault tolerance falls out of PR 5's persist-before-yield semantics plus
content-addressed resume: every record a worker reports as completed is
already in the store, and a worker (re)started on the same shard spec
skips persisted keys.  So the per-job supervisor thread simply restarts
any worker process that dies mid-shard — kill ``-9`` included — and the
final store (keys + record digests, see
:func:`~repro.experiments.store.store_digest`) is bit-identical to a
single-process run of the same spec, whatever the interleaving.

Workers are spawned (not forked): the daemon runs worker management from
threads, and forking a threaded process is deadlock-prone (and deprecated
from Python 3.12).  Worker entry points live at module level so they
pickle under the spawn context.

Job lifecycle states are the fixed vocabulary :data:`JOB_STATES`.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.experiments import (
    CampaignSpec,
    entry_digest,
    iter_campaign,
    open_store,
    scenario_key,
    shard_spec,
)
from repro.serving import ServingSpec, iter_serving

__all__ = [
    "JOB_STATES",
    "ServiceError",
    "Coordinator",
]

#: Every state a service job can be in, with what it means: the one
#: vocabulary clients, tests and docs share.
JOB_STATES: Dict[str, str] = {
    "pending": "accepted and sharded; worker processes not yet started",
    "running": "worker processes are executing shards against the shared store",
    "completed": "every shard drained; all records persisted and streamable",
    "failed": "a shard errored or exhausted its restart budget; partial records remain",
    "cancelled": "stopped by request or daemon shutdown; persisted records remain resumable",
}

#: States a job never leaves.
TERMINAL_STATES = ("completed", "failed", "cancelled")


class ServiceError(RuntimeError):
    """A campaign-service operation failed (bind, submit, lookup, ...)."""


# --------------------------------------------------------------------------- #
# Worker entry points (module-level: they must pickle under spawn).
# --------------------------------------------------------------------------- #


def _worker_main(
    kind: str,
    spec_dict: Dict[str, Any],
    shard_index: int,
    queue: Any,
    stop_event: Any,
) -> None:
    """One worker process: drive a shard's stream, reporting over ``queue``.

    Each message is ``(tag, shard_index, payload)``.  A ``"progress"``
    message is sent only *after* the engine yielded the record — which is
    after the record was persisted — so everything the supervisor has seen
    progress for is already in the shared store.  The stop event is
    checked between records: cancellation loses at most the in-flight
    scenario, and everything already reported stays persisted.
    """
    try:
        if kind == "campaign":
            spec = CampaignSpec.from_dict(spec_dict)
            events = iter_campaign(spec)
            try:
                for _record, progress in events:
                    queue.put(("progress", shard_index, progress.to_dict()))
                    if stop_event.is_set():
                        queue.put(("stopped", shard_index, None))
                        return
            finally:
                events.close()
        else:
            spec = ServingSpec.from_dict(spec_dict)
            events = iter_serving(spec)
            try:
                for record, progress in events:
                    queue.put(("record", shard_index, record.to_row()))
                    queue.put(("progress", shard_index, progress.to_dict()))
                    if stop_event.is_set():
                        queue.put(("stopped", shard_index, None))
                        return
            finally:
                events.close()
        queue.put(("done", shard_index, None))
    except BaseException as exc:  # noqa: BLE001 - reported, not swallowed
        try:
            queue.put(("error", shard_index, f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - queue already torn down
            pass


# --------------------------------------------------------------------------- #
# Job bookkeeping.
# --------------------------------------------------------------------------- #


@dataclass
class _ShardState:
    """Supervisor-side view of one shard's worker."""

    index: int
    total: int
    state: str = "pending"  # pending | running | done | stopped | failed
    completed: int = 0
    restarts: int = 0
    pid: Optional[int] = None
    #: The last raw progress dict the worker reported (campaign and
    #: serving progress carry different counters; status passes it through).
    last_progress: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "state": self.state,
            "completed": self.completed,
            "total": self.total,
            "restarts": self.restarts,
            "pid": self.pid,
            "progress": self.last_progress,
        }


@dataclass
class _Job:
    """One submitted campaign/serving job and its runtime attachments."""

    id: str
    kind: str
    name: str
    spec_dict: Dict[str, Any]
    shard_dicts: List[Dict[str, Any]]
    shards: List[_ShardState]
    workers: int
    state: str = "pending"
    error: Optional[str] = None
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    #: Serving jobs stream their combo rows back over the queue (they are
    #: small and are not persisted as store records themselves).
    rows: List[Dict[str, Any]] = field(default_factory=list)
    # Runtime attachments (populated by the coordinator when it starts
    # the job; absent from status payloads).
    queue: Any = None
    stop_event: Any = None
    procs: Dict[int, Any] = field(default_factory=dict)


class Coordinator:
    """Owns the shared store and every job's worker pool + supervisor.

    One coordinator backs one daemon: all jobs append to one shared
    artifact store (SQLite by default — the backend proven under
    concurrent writers), so resubmitting an overlapping grid simulates
    only what no earlier job persisted.

    Args:
        store: Directory of the shared artifact store.
        store_backend: Store backend name (default ``"sqlite"``).
        default_workers: Worker processes per campaign job when a
            submission does not say (serving jobs always run one worker —
            a serving spec has no shardable axis grid).
        max_restarts: How many times one shard's worker may be replaced
            after dying before the shard (and job) is declared failed.
        grace_seconds: How long cancellation/shutdown waits for workers to
            drain the in-flight record before terminating them.
    """

    #: Hard ceiling on worker processes per job, whatever was requested.
    MAX_WORKERS = 32

    def __init__(
        self,
        store: Union[str, os.PathLike],
        store_backend: str = "sqlite",
        default_workers: int = 2,
        max_restarts: int = 3,
        grace_seconds: float = 10.0,
    ) -> None:
        self.store_root = Path(store)
        self.store_backend = store_backend
        self.default_workers = max(1, int(default_workers))
        self.max_restarts = int(max_restarts)
        self.grace_seconds = float(grace_seconds)
        # Spawned workers: the daemon spawns from supervisor threads, and
        # fork-with-threads is deadlock-prone (and deprecated on 3.12+).
        self._ctx = multiprocessing.get_context("spawn")
        self._jobs: Dict[str, _Job] = {}
        self._supervisors: Dict[str, threading.Thread] = {}
        self._lock = threading.Lock()
        self._counter = 0

    # -- submission ------------------------------------------------------

    @staticmethod
    def detect_kind(spec_dict: Dict[str, Any]) -> str:
        """``"serving"`` when the payload looks like a ServingSpec."""
        if "serving_spec_version" in spec_dict or "trace" in spec_dict:
            return "serving"
        return "campaign"

    def submit(
        self,
        spec_dict: Dict[str, Any],
        kind: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> str:
        """Validate, shard and start one job; returns its id.

        The submitted spec's execution policy is overridden to the
        service's contract: the coordinator's shared store and backend,
        ``resume=True`` (the substrate of worker replacement) and the
        serial executor *inside* each worker — parallelism comes from the
        worker processes, one per shard, not from nested pools.

        Raises:
            ServiceError: for an unknown ``kind`` or bad ``workers``.
            ValueError / RegistryError: from spec validation (unknown
                axis names, malformed grids) — nothing starts.
        """
        kind = kind or self.detect_kind(spec_dict)
        if kind not in ("campaign", "serving"):
            raise ServiceError(
                f"unknown job kind {kind!r} (choose 'campaign' or 'serving')"
            )
        if workers is not None and int(workers) < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")

        overrides = dict(
            store=str(self.store_root),
            store_backend=self.store_backend,
            resume=True,
            executor="serial",
            max_workers=None,
        )
        if kind == "campaign":
            spec = CampaignSpec.from_dict(spec_dict).with_execution(**overrides)
            spec.validate()
            num_workers = min(
                self.MAX_WORKERS, int(workers) if workers is not None else self.default_workers
            )
            shard_specs = shard_spec(spec, num_workers)
            shard_dicts = [s.to_dict() for s in shard_specs]
            totals = [len(s.scenarios()) for s in shard_specs]
        else:
            spec = ServingSpec.from_dict(spec_dict).with_execution(**overrides)
            spec.validate()
            num_workers = 1  # a serving spec has no shardable grid
            shard_dicts = [spec.to_dict()]
            totals = [len(spec.combos())]

        with self._lock:
            self._counter += 1
            job_id = f"{kind}-{self._counter:04d}"
            job = _Job(
                id=job_id,
                kind=kind,
                name=spec.name,
                spec_dict=spec.to_dict(),
                shard_dicts=shard_dicts,
                shards=[
                    _ShardState(index=i, total=total) for i, total in enumerate(totals)
                ],
                workers=num_workers,
            )
            self._jobs[job_id] = job
            supervisor = threading.Thread(
                target=self._supervise, args=(job,), name=f"supervise-{job_id}",
                daemon=True,
            )
            self._supervisors[job_id] = supervisor
        supervisor.start()
        return job_id

    # -- queries ---------------------------------------------------------

    def _get(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            known = ", ".join(sorted(self._jobs)) or "none"
            raise ServiceError(f"unknown campaign id {job_id!r} (known: {known})")
        return job

    def status(self, job_id: str) -> Dict[str, Any]:
        """Structured progress of one job (shards, counters, timestamps)."""
        job = self._get(job_id)
        with self._lock:
            shards = [shard.to_dict() for shard in job.shards]
            payload: Dict[str, Any] = {
                "id": job.id,
                "kind": job.kind,
                "name": job.name,
                "state": job.state,
                "error": job.error,
                "workers": job.workers,
                "store": str(self.store_root),
                "store_backend": self.store_backend,
                "created": job.created,
                "started": job.started,
                "finished": job.finished,
                "progress": {
                    "completed": sum(s.completed for s in job.shards),
                    "total": sum(s.total for s in job.shards),
                },
                "shards": shards,
            }
            restarts = sum(s.restarts for s in job.shards)
            payload["restarts"] = restarts
            return payload

    def jobs(self) -> List[Dict[str, Any]]:
        """One summary row per job, submission order."""
        with self._lock:
            job_ids = list(self._jobs)
        return [
            {
                key: status[key]
                for key in ("id", "kind", "name", "state", "workers", "restarts")
            }
            | {"progress": status["progress"]}
            for status in (self.status(job_id) for job_id in job_ids)
        ]

    def wait(self, job_id: str, timeout: float = 60.0, poll: float = 0.05) -> Dict[str, Any]:
        """Block until the job reaches a terminal state (or raise)."""
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

    def records(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Stream the job's completed records as JSON-ready dicts.

        Campaign jobs stream from the shared store **in grid order** (the
        submitted spec's scenario order, not store insertion order), each
        row carrying the content key and record digest — so the stream of
        a multi-worker run compares line-for-line equal to a
        single-process run of the same spec.  Scenarios not yet persisted
        are simply absent, making the stream usable mid-run.  Serving
        jobs stream the combo rows their worker reported.
        """
        job = self._get(job_id)
        if job.kind == "serving":
            with self._lock:
                rows = list(job.rows)
            yield from rows
            return
        spec = CampaignSpec.from_dict(job.spec_dict)
        store = open_store(self.store_root, backend=self.store_backend)
        entries = {scenario_key(e.scenario): e for e in store.records()}
        for scenario in spec.scenarios():
            key = scenario_key(scenario)
            entry = entries.get(key)
            if entry is None:
                continue
            record: Dict[str, Any] = {
                "key": key,
                "digest": entry_digest(entry),
                "scenario": entry.scenario.to_dict(),
                "result": entry.result.to_dict(),
            }
            if entry.fidelity is not None:
                record["fidelity"] = entry.fidelity.to_dict()
            if entry.measured is not None:
                record["measured"] = entry.measured.to_dict()
            yield record

    # -- control ---------------------------------------------------------

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Ask the job's workers to stop after their in-flight record.

        Everything already persisted stays persisted: resubmitting the
        same spec later resumes from the store.  Cancelling a terminal
        job is a no-op.  Returns the (possibly still draining) status.
        """
        job = self._get(job_id)
        with self._lock:
            terminal = job.state in TERMINAL_STATES
            stop_event = job.stop_event
        if not terminal and stop_event is not None:
            stop_event.set()
        return self.status(job_id)

    def kill_worker(self, job_id: str, shard_index: int) -> bool:
        """SIGKILL one shard's worker process (fault-injection hook).

        The supervisor notices the death and replaces the worker, which
        resumes the shard from the shared store.  Returns ``False`` when
        the shard has no live worker to kill (already done, or between
        restarts) — callers loop on the status until a kill lands or the
        job completes.
        """
        job = self._get(job_id)
        with self._lock:
            if not 0 <= shard_index < len(job.shards):
                raise ServiceError(
                    f"job {job_id} has no shard {shard_index} "
                    f"(shards: 0..{len(job.shards) - 1})"
                )
            if job.shards[shard_index].state in ("done", "failed", "stopped"):
                return False
            proc = job.procs.get(shard_index)
            if proc is None or not proc.is_alive() or proc.pid is None:
                return False
            pid = proc.pid
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return False
        return True

    def drain(self, timeout: Optional[float] = None) -> None:
        """Stop every non-terminal job and wait for its supervisor.

        The daemon's SIGTERM/SIGINT path: stop events flip first (workers
        flush their in-flight record — persist-before-yield means nothing
        reported is lost), then every supervisor joins, terminating
        stragglers after the grace period.
        """
        if timeout is None:
            timeout = self.grace_seconds + 5.0
        with self._lock:
            jobs = list(self._jobs.values())
            supervisors = dict(self._supervisors)
        for job in jobs:
            if job.state not in TERMINAL_STATES and job.stop_event is not None:
                job.stop_event.set()
        deadline = time.monotonic() + timeout
        for job_id, supervisor in supervisors.items():
            supervisor.join(max(0.0, deadline - time.monotonic()))

    # -- supervision -----------------------------------------------------

    def _spawn(self, job: _Job, shard_index: int) -> None:
        """Start (or restart) one shard's worker process."""
        proc = self._ctx.Process(
            target=_worker_main,
            args=(job.kind, job.shard_dicts[shard_index], shard_index,
                  job.queue, job.stop_event),
            name=f"{job.id}-shard{shard_index}",
            daemon=True,
        )
        proc.start()
        job.procs[shard_index] = proc
        shard = job.shards[shard_index]
        shard.pid = proc.pid
        if shard.state == "pending":
            shard.state = "running"

    def _pump(self, job: _Job, timeout: float = 0.0) -> None:
        """Drain every queued worker message into the job's bookkeeping."""
        first = True
        while True:
            try:
                tag, shard_index, payload = job.queue.get(
                    timeout=timeout if first else 0.0
                )
            except queue_module.Empty:
                return
            first = False
            with self._lock:
                shard = job.shards[shard_index]
                if tag == "progress":
                    shard.last_progress = payload
                    shard.completed = int(payload.get("completed", shard.completed))
                    if shard.state == "pending":
                        shard.state = "running"
                elif tag == "record":
                    job.rows.append(payload)
                elif tag == "done":
                    shard.state = "done"
                    shard.pid = None
                elif tag == "stopped":
                    shard.state = "stopped"
                    shard.pid = None
                elif tag == "error":
                    shard.state = "failed"
                    shard.pid = None
                    if job.error is None:
                        job.error = f"shard {shard_index}: {payload}"

    def _supervise(self, job: _Job) -> None:
        """Per-job supervisor: launch, pump, replace the dead, conclude."""
        job.queue = self._ctx.Queue()
        job.stop_event = self._ctx.Event()
        with self._lock:
            job.state = "running"
            job.started = time.time()
        for index in range(len(job.shards)):
            self._spawn(job, index)
        final = "failed"
        try:
            while True:
                self._pump(job, timeout=0.1)
                with self._lock:
                    states = [shard.state for shard in job.shards]
                    erred = job.error is not None
                if all(state == "done" for state in states):
                    final = "completed"
                    break
                if erred:
                    # One shard failed fatally: stop the others, keep what
                    # they persisted, and mark the job failed.
                    job.stop_event.set()
                    self._shutdown_workers(job)
                    final = "failed"
                    break
                if job.stop_event.is_set():
                    self._shutdown_workers(job)
                    with self._lock:
                        erred = job.error is not None
                    final = "failed" if erred else "cancelled"
                    break
                self._replace_dead_workers(job)
        except Exception as exc:  # noqa: BLE001 - supervisor must conclude
            with self._lock:
                if job.error is None:
                    job.error = f"supervisor: {type(exc).__name__}: {exc}"
        finally:
            for proc in list(job.procs.values()):
                if proc.is_alive():  # pragma: no cover - belt and braces
                    proc.terminate()
                proc.join(1.0)
            with self._lock:
                if all(shard.state == "done" for shard in job.shards):
                    final = "completed"
                job.state = final
                job.finished = time.time()
                for shard in job.shards:
                    shard.pid = None
            job.queue.close()

    def _replace_dead_workers(self, job: _Job) -> None:
        """Restart every worker that died mid-shard (kill, crash, OOM)."""
        for index, proc in list(job.procs.items()):
            if proc.is_alive():
                continue
            # The worker may have exited right after queueing its final
            # message; drain before judging the shard unfinished.
            self._pump(job)
            with self._lock:
                shard = job.shards[index]
                unfinished = shard.state in ("pending", "running")
                exhausted = shard.restarts >= self.max_restarts
                if unfinished and exhausted and job.error is None:
                    shard.state = "failed"
                    job.error = (
                        f"shard {index}: worker died {shard.restarts + 1} times "
                        f"(exit code {proc.exitcode}); restart budget exhausted"
                    )
                if unfinished and not exhausted:
                    shard.restarts += 1
            proc.join(0.1)
            if unfinished and not exhausted:
                # Replacement resumes from the shared store: persisted
                # keys are skipped, so the final store is bit-identical.
                self._spawn(job, index)
            else:
                job.procs.pop(index, None)

    def _shutdown_workers(self, job: _Job) -> None:
        """Grace period for workers to flush, then terminate stragglers."""
        deadline = time.monotonic() + self.grace_seconds
        while time.monotonic() < deadline:
            self._pump(job, timeout=0.05)
            if not any(proc.is_alive() for proc in job.procs.values()):
                break
        for proc in job.procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in job.procs.values():
            proc.join(1.0)
        self._pump(job)
