"""Campaign service coordinator: sharded jobs served by a warm worker pool.

The service side of ``repro serve``: a :class:`Coordinator` accepts
:class:`~repro.experiments.spec.CampaignSpec` /
:class:`~repro.serving.spec.ServingSpec` payloads, splits a campaign's
axis grid into deterministic shards
(:func:`~repro.experiments.spec.shard_spec`) and hands the shards to
**worker processes** that each drive the ordinary streaming engine
(:func:`~repro.experiments.spec.iter_campaign` /
:func:`~repro.serving.spec.iter_serving`) against one shared artifact
store.

Fault tolerance falls out of persist-before-yield semantics plus
content-addressed resume: every record a worker reports as completed is
already in the store, and a worker that runs the same shard spec again
skips persisted keys.  So the per-job supervisor thread simply
re-dispatches the shard of any worker process that dies mid-shard —
kill ``-9`` included — and the final store (keys + record digests, see
:func:`~repro.experiments.store.store_digest`) is bit-identical to a
single-process run of the same spec, whatever the interleaving.

Worker pool lifecycle
---------------------
The coordinator owns one pool of long-lived workers.  A worker is
spawned the first time a shard finds no idle worker, starts an
interpreter and imports ``repro`` once (more time than a small job's
own work) and then serves shards of any job, one at a time, until
:meth:`Coordinator.drain` sends it home.  So the pool grows on demand to
the largest number of shards that ever ran at once; ``workers`` still
means shards per job.

* **Dispatch.** The job's supervisor takes an idle worker (or spawns
  one) per non-empty shard and sends it ``("run", kind, shard spec)``.
* **Serve.** The worker streams ``progress`` (and, for serving jobs,
  ``record``) messages back, and ends the shard with exactly one of
  ``done``, ``stopped`` or ``error``.  After any of the three it goes
  back to idle.
* **Stop.** Cancellation and shutdown send ``("stop",)``.  The worker
  checks for it between records, so it loses at most the in-flight
  scenario.  A worker still busy after ``grace_seconds`` is terminated.
* **Death.** A worker that dies mid-shard is dropped from the pool, and
  its shard is re-dispatched to another worker (resuming from the store)
  until the shard has used ``max_restarts`` replacements.

Why a pipe per worker rather than a shared queue: every worker talks to
the coordinator over its own duplex ``Pipe``, and the supervisor waits on
the pipes and process sentinels with
:func:`multiprocessing.connection.wait`.  No lock is shared between
workers.  A ``multiprocessing.Queue`` shared by a job's workers
serialises their writes through one cross-process lock, and an
``Event`` guards its flag with another.  A worker SIGKILLed while it
holds either lock leaves it held for good, so its siblings (and the
supervisor polling the event) block forever and the job never ends.  A
killed worker can break only its own pipe, which the supervisor reads as
end-of-file next to the process sentinel.

Workers are spawned (not forked): the daemon runs worker management from
threads, and forking a threaded process is deadlock-prone (and deprecated
from Python 3.12).  The worker entry point lives at module level so it
pickles under the spawn context.

Job lifecycle states are the fixed vocabulary :data:`JOB_STATES`.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_ready
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.experiments import (
    ArtifactStore,
    CampaignSpec,
    entry_digest,
    iter_campaign,
    scenario_key,
    shard_spec,
)
from repro.experiments.store import check_store_backend
from repro.serving import ServingSpec, iter_serving

__all__ = [
    "JOB_STATES",
    "ServiceError",
    "Coordinator",
]

#: Every state a service job can be in, with what it means: the one
#: vocabulary clients, tests and docs share.
JOB_STATES: Dict[str, str] = {
    "pending": "accepted and sharded; shards not yet handed to pool workers",
    "running": "pool workers are executing shards against the shared store",
    "completed": "every shard drained; all records persisted and streamable",
    "failed": "a shard errored or exhausted its restart budget; partial records remain",
    "cancelled": "stopped by request or daemon shutdown; persisted records remain resumable",
}

#: States a job never leaves.
TERMINAL_STATES = ("completed", "failed", "cancelled")


class ServiceError(RuntimeError):
    """A campaign-service operation failed (bind, submit, lookup, ...)."""


# --------------------------------------------------------------------------- #
# Worker entry point (module-level: it must pickle under spawn).
# --------------------------------------------------------------------------- #


def _worker_main(conn: Any) -> None:
    """One pooled worker: serve shards sent down ``conn`` until told to exit.

    Messages down the pipe are ``("run", kind, shard spec dict)``,
    ``("stop",)`` and ``None`` (exit).  A stop that arrives after its
    shard already ended is read here, while idle, and ignored.  SIGINT
    is ignored: a Ctrl-C reaches the whole process group, and the daemon
    drains its workers itself.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            message = conn.recv()
            if message is None:
                return
            if message[0] == "run":
                conn.send(_serve_shard(conn, message[1], message[2]))
    except (EOFError, OSError):  # the coordinator went away
        return


def _serve_shard(conn: Any, kind: str, spec_dict: Dict[str, Any]) -> Tuple[str, Any]:
    """Drive one shard's stream; returns the message that ends the shard.

    A ``"progress"`` message is sent only *after* the engine yielded the
    record — which is after the record was persisted — so everything the
    supervisor has seen progress for is already in the shared store.  Any
    message waiting on the pipe between records is a stop (or the exit
    that follows one): it is left unread for the idle loop.
    """
    try:
        if kind == "campaign":
            events = iter_campaign(CampaignSpec.from_dict(spec_dict))
        else:
            events = iter_serving(ServingSpec.from_dict(spec_dict))
        try:
            for record, progress in events:
                if kind == "serving":
                    conn.send(("record", record.to_row()))
                conn.send(("progress", progress.to_dict()))
                if conn.poll():
                    return ("stopped", None)
        finally:
            events.close()
        return ("done", None)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        return ("error", f"{type(exc).__name__}: {exc}")


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
class _Worker:
    """One pooled worker process and the coordinator's end of its pipe."""

    proc: Any
    conn: Any


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
    #: Serving jobs stream their combo rows back over the pipe (they are
    #: small and are not persisted as store records themselves).
    rows: List[Dict[str, Any]] = field(default_factory=list)
    # Runtime attachments (absent from status payloads).
    #: Set by cancel/drain; the supervisor then stops the job's workers.
    stop: threading.Event = field(default_factory=threading.Event)
    #: In-process pipe whose write end wakes the supervisor after ``stop``.
    wake: Tuple[Any, Any] = field(default_factory=lambda: multiprocessing.Pipe(duplex=False))
    #: Shard index -> the pooled worker currently serving it.
    running: Dict[int, _Worker] = field(default_factory=dict)


class Coordinator:
    """Owns the shared store, the worker pool and every job's supervisor.

    One coordinator backs one daemon: all jobs append to one shared
    artifact store (WAL-mode SQLite, safe under concurrent writers), so
    resubmitting an overlapping grid simulates only what no earlier job
    persisted — and a ``repro campaign run --store`` on the same
    directory reads and writes the same records.

    Args:
        store: Directory of the shared artifact store.
        store_backend: ``None`` or ``"sqlite"`` (the same thing; anything
            else is refused).
        default_workers: Shards (so concurrently busy workers) per
            campaign job when a submission does not say (serving jobs
            always run one shard — a serving spec has no shardable axis
            grid).
        max_restarts: How many times one shard may be re-dispatched after
            its worker died before the shard (and job) is declared failed.
        grace_seconds: How long cancellation/shutdown waits for workers to
            drain the in-flight record before terminating them.

    Raises:
        ServiceError: ``default_workers`` below 1, the same error a
            ``submit`` with such ``workers`` raises.
        ValueError: another ``store_backend``, or a ``store`` directory
            holding only a legacy ``records.jsonl``.
    """

    #: Hard ceiling on shards per job, whatever was requested.
    MAX_WORKERS = 32

    def __init__(
        self,
        store: Union[str, os.PathLike],
        store_backend: Optional[str] = None,
        default_workers: int = 2,
        max_restarts: int = 3,
        grace_seconds: float = 10.0,
    ) -> None:
        check_store_backend(store_backend)
        ArtifactStore(store)  # a JSONL-only directory fails here, not in the first job
        self.store_root = Path(store)
        if int(default_workers) < 1:
            raise ServiceError(f"workers must be >= 1, got {default_workers}")
        self.default_workers = int(default_workers)
        self.max_restarts = int(max_restarts)
        self.grace_seconds = float(grace_seconds)
        # Spawned workers: the pool grows from supervisor threads, and
        # fork-with-threads is deadlock-prone (and deprecated on 3.12+).
        self._ctx = multiprocessing.get_context("spawn")
        self._jobs: Dict[str, _Job] = {}
        #: Every pooled worker, and the ones not serving a shard right now.
        self._workers: List[_Worker] = []
        self._idle: List[_Worker] = []
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
        service's contract: the coordinator's shared store,
        ``resume=True`` (the substrate of worker replacement) and the
        serial executor *inside* each worker — parallelism comes from the
        pooled worker processes, one per running shard, not from nested
        pools.

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
        single-process run of the same spec.  Each scenario is one keyed
        store read, so the cost follows the job's grid, not the size of
        the store every earlier job filled.  Scenarios not yet persisted
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
        store = ArtifactStore(self.store_root)
        for scenario in spec.scenarios():
            entry = store.entry(scenario)
            if entry is None:
                continue
            record: Dict[str, Any] = {
                "key": scenario_key(scenario),
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
            self._request_stop(job)
        return self.status(job_id)

    def kill_worker(self, job_id: str, shard_index: int) -> bool:
        """SIGKILL one shard's worker process (fault-injection hook).

        The supervisor notices the death and hands the shard to another
        pooled worker, which resumes it from the shared store.  Returns
        ``False`` when the shard has no live worker to kill (already done,
        or between restarts) — callers loop on the status until a kill
        lands or the job completes.
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
            worker = job.running.get(shard_index)
            if worker is None or not worker.proc.is_alive() or worker.proc.pid is None:
                return False
            pid = worker.proc.pid
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return False
        return True

    def drain(self, timeout: Optional[float] = None) -> None:
        """Stop every non-terminal job, wait for its supervisor, close the pool.

        The daemon's SIGTERM/SIGINT path: every job's workers are told to
        stop first (they flush their in-flight record — persist-before-yield
        means nothing reported is lost), then every supervisor joins,
        terminating stragglers after the grace period.  Last, every pooled
        worker is told to exit and joined, so no child process outlives
        the call.  A later :meth:`submit` starts a fresh pool.
        """
        if timeout is None:
            timeout = self.grace_seconds + 5.0
        with self._lock:
            for job in self._jobs.values():
                self._request_stop(job)
            supervisors = list(self._supervisors.values())
        deadline = time.monotonic() + timeout
        for supervisor in supervisors:
            supervisor.join(max(0.0, deadline - time.monotonic()))
        with self._lock:
            workers, self._workers, self._idle = self._workers, [], []
        for worker in workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        for worker in workers:
            worker.proc.join(max(0.1, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(1.0)
            worker.conn.close()

    def _request_stop(self, job: _Job) -> None:
        """Flag a live job to stop and wake its supervisor (lock held)."""
        if job.state not in TERMINAL_STATES and not job.stop.is_set():
            job.stop.set()
            job.wake[1].send_bytes(b"")

    # -- worker pool -----------------------------------------------------

    def _acquire(self) -> _Worker:
        """An idle live worker from the pool, or a freshly spawned one."""
        with self._lock:
            while self._idle:
                worker = self._idle.pop()
                if worker.proc.is_alive():
                    return worker
                self._workers.remove(worker)
                worker.conn.close()
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(child,), name="repro-service-worker", daemon=True
        )
        proc.start()
        child.close()
        worker = _Worker(proc=proc, conn=parent)
        with self._lock:
            self._workers.append(worker)
        return worker

    def _release(self, worker: _Worker) -> None:
        """Return a worker whose shard ended to the pool; drop a dead one."""
        alive = worker.proc.is_alive()
        with self._lock:
            if alive:
                self._idle.append(worker)
                return
            if worker in self._workers:
                self._workers.remove(worker)
        worker.proc.join(0.1)
        worker.conn.close()

    # -- supervision -----------------------------------------------------

    def _dispatch(self, job: _Job, index: int) -> None:
        """Hand one shard to a pooled worker.

        A worker that died idle fails the send or is seen dead on the next
        wait; either way the death path re-dispatches the shard.
        """
        worker = self._acquire()
        with self._lock:
            job.running[index] = worker
            shard = job.shards[index]
            shard.pid = worker.proc.pid
            shard.state = "running"
        try:
            worker.conn.send(("run", job.kind, job.shard_dicts[index]))
        except OSError:
            pass

    def _pump(self, job: _Job, index: int, worker: _Worker) -> bool:
        """Apply every message waiting on one worker's pipe.

        Returns ``True`` once the worker ended its shard (done, stopped or
        error).  End-of-file (the worker died) just ends the pumping.
        """
        while True:
            try:
                if not worker.conn.poll():
                    return False
                tag, payload = worker.conn.recv()
            except (EOFError, OSError):
                return False
            with self._lock:
                shard = job.shards[index]
                if tag == "progress":
                    shard.last_progress = payload
                    shard.completed = int(payload.get("completed", shard.completed))
                elif tag == "record":
                    job.rows.append(payload)
                elif tag == "error":
                    shard.state = "failed"
                    if job.error is None:
                        job.error = f"shard {index}: {payload}"
                else:  # done | stopped
                    shard.state = tag
            if tag in ("done", "stopped", "error"):
                return True

    def _end_shard(self, job: _Job, index: int) -> _Worker:
        """Detach a shard from its worker (lock taken here)."""
        with self._lock:
            job.shards[index].pid = None
            return job.running.pop(index)

    def _on_death(self, job: _Job, index: int, exitcode: Optional[int]) -> None:
        """A worker died mid-shard: re-dispatch it or fail it on budget."""
        with self._lock:
            shard = job.shards[index]
            if job.stop.is_set() or job.error is not None:
                shard.state = "stopped"
                return
            if shard.restarts >= self.max_restarts:
                shard.state = "failed"
                job.error = (
                    f"shard {index}: worker died {shard.restarts + 1} times "
                    f"(exit code {exitcode}); restart budget exhausted"
                )
                return
            shard.restarts += 1
        # The new worker resumes from the shared store: persisted keys are
        # skipped, so the final store is bit-identical.
        self._dispatch(job, index)

    def _supervise(self, job: _Job) -> None:
        """Per-job supervisor: dispatch, pump, replace the dead, conclude."""
        with self._lock:
            job.state = "running"
            job.started = time.time()
        wake = job.wake[0]
        stop_deadline: Optional[float] = None
        try:
            for shard in job.shards:
                if shard.total == 0:
                    with self._lock:
                        shard.state = "done"
                elif not job.stop.is_set():
                    self._dispatch(job, shard.index)
            while job.running:
                if stop_deadline is None and (job.stop.is_set() or job.error is not None):
                    # Cancelled, or one shard failed fatally: stop the
                    # others and keep what they persisted.
                    stop_deadline = time.monotonic() + self.grace_seconds
                    for worker in job.running.values():
                        try:
                            worker.conn.send(("stop",))
                        except OSError:
                            pass
                timeout = None
                if stop_deadline is not None:
                    timeout = max(0.0, stop_deadline - time.monotonic())
                waitables = [wake]
                for worker in job.running.values():
                    waitables += [worker.conn, worker.proc.sentinel]
                if not wait_ready(waitables, timeout) and stop_deadline is not None:
                    break  # grace period over: terminate the stragglers below
                while wake.poll():
                    wake.recv_bytes()
                for index, worker in list(job.running.items()):
                    ended = self._pump(job, index, worker)
                    if not ended and worker.proc.is_alive():
                        continue
                    if not ended:  # dead: read what it sent before dying
                        ended = self._pump(job, index, worker)
                    self._release(self._end_shard(job, index))
                    if not ended:
                        self._on_death(job, index, worker.proc.exitcode)
        except Exception as exc:  # noqa: BLE001 - supervisor must conclude
            with self._lock:
                if job.error is None:
                    job.error = f"supervisor: {type(exc).__name__}: {exc}"
        finally:
            for index in list(job.running):
                worker = self._end_shard(job, index)
                worker.proc.terminate()
                worker.proc.join(1.0)
                self._release(worker)
                with self._lock:
                    job.shards[index].state = "stopped"
            with self._lock:
                if all(shard.state == "done" for shard in job.shards):
                    job.state = "completed"
                else:
                    job.state = "failed" if job.error is not None else "cancelled"
                job.finished = time.time()
            for end in job.wake:
                end.close()
