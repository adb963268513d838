"""Declarative, JSON-round-trippable campaign specifications.

A :class:`CampaignSpec` is the full description of one experiment sweep as
a frozen value: the axes grid (:class:`AxisGrid`), which joins to compute
(:class:`Enrichments`) and how to execute (:class:`ExecutionPolicy`).
Because the spec is plain data — ``spec.to_json()`` /
``CampaignSpec.from_json(...)`` round-trip exactly — an experiment can be
committed to a repo, shipped to a worker fleet, re-run bit-identically
months later, and resumed after a kill from its on-disk store.

The streaming entry point is :func:`iter_campaign`::

    from repro.experiments import AxisGrid, CampaignSpec, ExecutionPolicy, iter_campaign

    spec = CampaignSpec(
        name="buffer-sweep",
        axes=AxisGrid(
            workloads=(("bert-large", "squad", None),),
            designs=("tensor-cores", "gobo", "mokey"),
            buffer_bytes=(256 * 1024, 1024 * 1024),
        ),
        execution=ExecutionPolicy(executor="process", store="./.repro-store"),
    )
    for record, progress in iter_campaign(spec):
        print(progress, record.scenario.label)

Every scenario is appended to the policy's store the moment it completes,
so a killed campaign resumes by re-running the same spec: persisted keys
are skipped (``resume=True``, the default) and the final record set —
store keys and digests — is bit-identical to an uninterrupted run.
:func:`run_spec` is the batch convenience (drain, return a
:class:`~repro.experiments.campaign.CampaignResult`).

Validation happens against the unified registry surface
(:mod:`repro.registry`): every model, task, scheme and design name on the
grid must be registered, and an unknown name raises a
:class:`~repro.registry.RegistryError` naming the registry and its
nearest match *before* anything simulates.  Malformed values — a string
where an axis list belongs, a bool or zero where a positive integer
belongs, a non-bool flag — fail the same way, in one ``ValueError`` line.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.experiments.accuracy import AccuracySettings
from repro.experiments.campaign import (
    EXECUTORS,
    CampaignProgress,
    CampaignResult,
    ResultCache,
    ScenarioRecord,
    _stream_core,
)
from repro.experiments.measured import MeasurementSettings
from repro.experiments.scenario import KB, Scenario
from repro.experiments.store import StoreBackend, open_store

__all__ = [
    "AxisGrid",
    "Enrichments",
    "ExecutionPolicy",
    "CampaignSpec",
    "iter_campaign",
    "run_spec",
    "shard_spec",
]

WorkloadTriple = Tuple[str, str, Optional[int]]


def _as_tuple(name: str, values: Any) -> Tuple[Any, ...]:
    """``values`` as a tuple; a string or scalar is not an axis."""
    if isinstance(values, (str, bytes, Mapping)) or not hasattr(values, "__iter__"):
        raise ValueError(f"{name} must be a list, got {values!r}")
    return tuple(values)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_bool(name: str, value: Any) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def _lookup(registry: Any, label: str, name: Any) -> Any:
    """``registry.get(name)``, rejecting a non-string ``name`` as ``label``'s."""
    if not isinstance(name, str):
        raise ValueError(f"{label} must name registered entries, got {name!r}")
    return registry.get(name)


def _check_execution(policy: "ExecutionPolicy") -> None:
    """Reject a malformed execution policy in one ``ValueError`` line."""
    from repro import registry  # deferred: registry imports this package

    if policy.executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {policy.executor!r} "
            f"(choose from {', '.join(EXECUTORS)})"
        )
    for label, value in (("max_workers", policy.max_workers),
                         ("chunksize", policy.chunksize)):
        if value is not None and (not _is_int(value) or value <= 0):
            raise ValueError(f"{label} must be a positive integer or null, got {value!r}")
    _check_bool("resume", policy.resume)
    if policy.store is not None and not isinstance(policy.store, (str, os.PathLike)):
        raise ValueError(f"execution.store must be a path or null, got {policy.store!r}")
    if policy.store_backend is not None:
        _lookup(registry.STORES, "store_backend", policy.store_backend)


@dataclass(frozen=True)
class AxisGrid:
    """The swept axes of a campaign; expands to the scenario list.

    The first three axes cross with each other unless :attr:`workloads`
    pins explicit ``(model, task, sequence_length)`` triples (the paper's
    Table I pairs are not a full cross product), and every workload then
    crosses with batch sizes × schemes × designs × buffer sizes.  Axis
    values may repeat: each copy is its own grid point, and a campaign
    simulates the repeats once.

    Attributes:
        models, tasks, sequence_lengths: Workload axes (``None`` sequence
            length = the task's default).
        batch_sizes: Batch axis.
        schemes: Scheme overrides (``None`` = the design's own scheme).
        designs: Registered design names.
        buffer_bytes: On-chip buffer capacity axis.
        workloads: Optional explicit workload triples replacing the cross
            product of the first three axes.
        shard: Optional ``(index, count)`` pair restricting the grid to
            one deterministic shard: scenario ``k`` of the full expansion
            belongs to shard ``k % count``.  The ``count`` shards of a
            grid are pairwise disjoint (positionally), their union is the
            full grid, and each shard preserves full-grid order — the
            algebra :func:`shard_spec` (and the campaign service's worker
            fan-out) is built on.
    """

    models: Tuple[str, ...] = ("bert-base",)
    tasks: Tuple[str, ...] = ("mnli",)
    sequence_lengths: Tuple[Optional[int], ...] = (None,)
    batch_sizes: Tuple[int, ...] = (1,)
    schemes: Tuple[Optional[str], ...] = (None,)
    designs: Tuple[str, ...] = ("mokey",)
    buffer_bytes: Tuple[int, ...] = (512 * KB,)
    workloads: Optional[Tuple[WorkloadTriple, ...]] = None
    shard: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        # Normalise sequences (JSON lists, generator output) to tuples so
        # the grid is hashable and from_dict(to_dict()) round-trips to
        # equality; a string or scalar axis is rejected, not iterated.
        for name in ("models", "tasks", "sequence_lengths", "batch_sizes",
                     "schemes", "designs", "buffer_bytes"):
            object.__setattr__(self, name, _as_tuple(name, getattr(self, name)))
        if self.workloads is not None:
            object.__setattr__(self, "workloads", tuple(
                _as_tuple("a workload triple", triple)
                for triple in _as_tuple("workloads", self.workloads)
            ))
        if self.shard is not None:
            object.__setattr__(self, "shard", _as_tuple("shard", self.shard))

    def scenarios(self) -> List[Scenario]:
        """Expand the axes into the scenario list (this shard's, if sharded).

        A sharded grid takes every ``count``-th scenario of the full
        expansion starting at ``index`` — a round-robin slice, so the
        shards of one grid stay balanced even when the grid's tail axes
        (e.g. buffer sizes) correlate with simulation cost.
        """
        workloads = self.workloads
        if workloads is None:
            workloads = itertools.product(self.models, self.tasks, self.sequence_lengths)
        expanded = [
            Scenario(
                model=model,
                task=task,
                sequence_length=seq,
                batch_size=batch,
                scheme=scheme,
                design=design,
                buffer_bytes=size,
            )
            for (model, task, seq), batch, scheme, design, size in itertools.product(
                workloads, self.batch_sizes, self.schemes, self.designs, self.buffer_bytes
            )
        ]
        if self.shard is None:
            return expanded
        index, count = self.shard
        return expanded[index::count]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "models": list(self.models),
            "tasks": list(self.tasks),
            "sequence_lengths": list(self.sequence_lengths),
            "batch_sizes": list(self.batch_sizes),
            "schemes": list(self.schemes),
            "designs": list(self.designs),
            "buffer_bytes": list(self.buffer_bytes),
            "workloads": (
                None if self.workloads is None else [list(t) for t in self.workloads]
            ),
            "shard": None if self.shard is None else list(self.shard),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AxisGrid":
        """Rebuild from :meth:`to_dict` output, ignoring unknown keys."""
        names = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in names})


@dataclass(frozen=True)
class Enrichments:
    """Which joins a campaign computes next to the hardware results.

    Attributes:
        accuracy: Join a :class:`~repro.experiments.accuracy.FidelityResult`
            to every record (memoised per ``(model, task, scheme)``).
        measured: Join a :class:`~repro.experiments.measured.MeasuredStats`
            (memoised per ``(model, seq, batch)``).
        accuracy_settings: Parameters of the fidelity evaluation; ``None``
            uses :data:`~repro.experiments.accuracy.DEFAULT_ACCURACY_SETTINGS`.
        measurement_settings: Parameters of the measured-layer execution;
            ``None`` uses
            :data:`~repro.experiments.measured.DEFAULT_MEASUREMENT_SETTINGS`.
    """

    accuracy: bool = False
    measured: bool = False
    accuracy_settings: Optional[AccuracySettings] = None
    measurement_settings: Optional[MeasurementSettings] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "accuracy": self.accuracy,
            "measured": self.measured,
            "accuracy_settings": (
                None if self.accuracy_settings is None else self.accuracy_settings.to_dict()
            ),
            "measurement_settings": (
                None
                if self.measurement_settings is None
                else self.measurement_settings.to_dict()
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Enrichments":
        """Rebuild from :meth:`to_dict` output, ignoring unknown keys."""
        settings = {}
        for key, settings_cls in (("accuracy_settings", AccuracySettings),
                                  ("measurement_settings", MeasurementSettings)):
            raw = data.get(key)
            if raw is not None and not isinstance(raw, Mapping):
                raise ValueError(
                    f"enrichments {key!r} must be an object, got {type(raw).__name__}"
                )
            settings[key] = None if raw is None else settings_cls.from_dict(raw)
        return cls(
            accuracy=data.get("accuracy", False),
            measured=data.get("measured", False),
            **settings,
        )


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a campaign executes: fan-out, persistence and resume semantics.

    Attributes:
        executor: ``"serial"`` (in-line, best for debugging and the only
            one that simulates nothing past a consumer that stops early),
            ``"thread"`` (the default; fine for small grids) or
            ``"process"`` (the simulator is CPU-bound Python, so this is
            the fast choice for large grids).
        max_workers: Pool width (``None`` = the executor's heuristic).
        chunksize: Scenarios per process-pool work item (process only).
        store: Artifact-store directory; ``None`` keeps everything in
            memory.  With a store, every completed scenario is appended
            incrementally, making the campaign killable and resumable.
        store_backend: Which registered store backend (``"jsonl"`` /
            ``"sqlite"``) to open the store directory under; ``None``
            (the default) keeps whatever layout the directory already
            holds, falling back to JSONL for a fresh directory.
        resume: When the store already holds a scenario's key, serve it
            from disk instead of re-simulating (the default).  With
            ``resume=False`` the store is kept out of the lookup path —
            everything re-simulates — but fresh results still persist.
    """

    executor: str = "thread"
    max_workers: Optional[int] = None
    chunksize: Optional[int] = None
    store: Optional[Union[str, os.PathLike]] = None
    store_backend: Optional[str] = None
    resume: bool = True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "executor": self.executor,
            "max_workers": self.max_workers,
            "chunksize": self.chunksize,
            "store": os.fspath(self.store) if isinstance(self.store, os.PathLike) else self.store,
            "store_backend": self.store_backend,
            "resume": self.resume,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionPolicy":
        """Rebuild from :meth:`to_dict` output, ignoring unknown keys."""
        names = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in names})


#: Schema version of the serialized spec form.  Bump on incompatible
#: changes to the JSON layout; older specs are still accepted as long as
#: their fields parse (unknown fields are ignored in both directions).
SPEC_VERSION = 1


@dataclass(frozen=True)
class CampaignSpec:
    """One experiment, fully described as a frozen, serializable value.

    Attributes:
        name: Human label; appears in progress output and filenames only
            (two specs differing only by name run identical campaigns).
        axes: The swept grid (:class:`AxisGrid`).
        enrichments: Joins to compute (:class:`Enrichments`).
        execution: Fan-out/persistence policy (:class:`ExecutionPolicy`).
    """

    name: str = "campaign"
    axes: AxisGrid = field(default_factory=AxisGrid)
    enrichments: Enrichments = field(default_factory=Enrichments)
    execution: ExecutionPolicy = field(default_factory=ExecutionPolicy)

    # -- validation ------------------------------------------------------

    def validate(self) -> "CampaignSpec":
        """Check every name on the grid against the unified registries.

        Raises :class:`~repro.registry.RegistryError` for unknown model /
        task / scheme / design names (naming the registry and its nearest
        match) and ``ValueError`` for malformed numeric axes, non-bool
        flags, non-positive pool sizes or an unknown executor — all
        before anything simulates.  Returns ``self`` so it chains:
        ``iter_campaign(spec.validate())``.
        """
        from repro import registry  # deferred: registry imports this package

        axes = self.axes
        if axes.workloads is not None:
            for triple in axes.workloads:
                if len(triple) != 3:
                    raise ValueError(
                        f"workload triple {triple!r} must be (model, task, sequence_length)"
                    )
            models = [model for model, _task, _seq in axes.workloads]
            tasks = [task for _model, task, _seq in axes.workloads]
            seqs = [seq for _model, _task, seq in axes.workloads]
        else:
            models, tasks, seqs = list(axes.models), list(axes.tasks), list(axes.sequence_lengths)
        for model in models:
            _lookup(registry.MODELS, "models", model)
        for task in tasks:
            _lookup(registry.TASKS, "tasks", task)
        for scheme in axes.schemes:
            if scheme is not None:
                _lookup(registry.SCHEMES, "schemes", scheme)
        for design in axes.designs:
            _lookup(registry.DESIGNS, "designs", design)
        for seq in seqs:
            if seq is not None and (not _is_int(seq) or seq <= 0):
                raise ValueError(f"sequence lengths must be positive or None, got {seq!r}")
        for label, values in (("batch_sizes", axes.batch_sizes),
                              ("buffer_bytes", axes.buffer_bytes)):
            for value in values:
                if not _is_int(value) or value <= 0:
                    raise ValueError(f"{label} must be positive integers, got {value!r}")
        if axes.shard is not None:
            shard = axes.shard
            if len(shard) != 2 or not all(_is_int(part) for part in shard):
                raise ValueError(
                    f"shard must be an (index, count) pair of integers, got {shard!r}"
                )
            index, count = shard
            if count < 1:
                raise ValueError(f"shard count must be >= 1, got {count}")
            if not 0 <= index < count:
                raise ValueError(
                    f"shard index must be in [0, {count}), got {index}"
                )
        _check_execution(self.execution)
        for label, value in (("accuracy", self.enrichments.accuracy),
                             ("measured", self.enrichments.measured)):
            _check_bool(label, value)
        return self

    def scenarios(self) -> List[Scenario]:
        """The expanded scenario list of :attr:`axes`."""
        return self.axes.scenarios()

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready nested mapping; inverse of :meth:`from_dict`."""
        return {
            "spec_version": SPEC_VERSION,
            "name": self.name,
            "axes": self.axes.to_dict(),
            "enrichments": self.enrichments.to_dict(),
            "execution": self.execution.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output, ignoring unknown keys.

        Raises ``ValueError`` when the spec or one of its sections is not
        a mapping (a JSON object).
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"a campaign spec must be an object, got {type(data).__name__}")
        sections = {}
        for key in ("axes", "enrichments", "execution"):
            section = data.get(key) or {}
            if not isinstance(section, Mapping):
                raise ValueError(
                    f"campaign spec {key!r} must be an object, got {type(section).__name__}"
                )
            sections[key] = section
        return cls(
            name=str(data.get("name", "campaign")),
            axes=AxisGrid.from_dict(sections["axes"]),
            enrichments=Enrichments.from_dict(sections["enrichments"]),
            execution=ExecutionPolicy.from_dict(sections["execution"]),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, os.PathLike]) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "CampaignSpec":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # -- derivation ------------------------------------------------------

    def with_execution(self, **changes: Any) -> "CampaignSpec":
        """A copy with :class:`ExecutionPolicy` fields replaced."""
        return replace(self, execution=replace(self.execution, **changes))

    def with_enrichments(self, **changes: Any) -> "CampaignSpec":
        """A copy with :class:`Enrichments` fields replaced."""
        return replace(self, enrichments=replace(self.enrichments, **changes))


def shard_spec(spec: CampaignSpec, num_shards: int) -> List[CampaignSpec]:
    """Split ``spec`` into ``num_shards`` deterministic shard specs.

    Shard ``i`` is ``spec`` with ``axes.shard = (i, num_shards)``: its
    scenario list is every ``num_shards``-th scenario of the full grid
    starting at ``i``.  The shards are pairwise disjoint (positionally),
    their concatenation-by-interleaving is exactly the full grid, each
    preserves full-grid order, and each round-trips through JSON like any
    other spec — so a fleet of workers each running one shard against one
    shared store produces precisely the full campaign's store keys and
    record digests, whatever the interleaving.  Everything else about the
    spec (enrichments, execution policy, name) is shared verbatim.

    Raises ``ValueError`` for a non-positive ``num_shards`` or a spec
    that is already a shard (shards of shards would silently drop grid
    points).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if spec.axes.shard is not None:
        raise ValueError(
            f"spec {spec.name!r} is already shard {spec.axes.shard[0]} of "
            f"{spec.axes.shard[1]}; shard the unsharded spec instead"
        )
    return [
        replace(spec, axes=replace(spec.axes, shard=(index, num_shards)))
        for index in range(num_shards)
    ]


def _policy_cache(policy: ExecutionPolicy) -> Tuple[ResultCache, Optional[StoreBackend]]:
    """Build the cache (and possibly a write-only store) the policy asks for."""
    if policy.store is None:
        return ResultCache(), None
    store = open_store(policy.store, backend=policy.store_backend)
    if policy.resume:
        return ResultCache(store=store), None
    # resume=False: keep the store out of the lookup path (everything
    # re-simulates) but still persist what this run produces.
    return ResultCache(), store


def iter_campaign(
    spec: CampaignSpec,
    cache: Optional[ResultCache] = None,
) -> Iterator[Tuple[ScenarioRecord, CampaignProgress]]:
    """Stream one declarative campaign: validate, expand, simulate, yield.

    Yields ``(record, progress)`` as scenarios complete, in grid order.
    Each record is appended to the policy's store before it is yielded,
    so a consumer that stops mid-grid (kill, ``break``, exception) loses
    nothing already emitted; re-running the same spec resumes from the
    store, skipping persisted keys, and ends with a record set
    bit-identical to an uninterrupted run.

    Args:
        spec: The campaign description; validated against the unified
            registries before anything simulates.
        cache: Override the cache the execution policy would build (e.g.
            to share one in-memory cache across specs, or to layer one
            over a store opened elsewhere).  When given, the policy's
            ``store``/``resume`` fields are ignored — the cache's own
            backing store governs persistence.
    """
    cache, events = _prepare_stream(spec, cache)
    return events


def run_spec(
    spec: CampaignSpec,
    cache: Optional[ResultCache] = None,
) -> CampaignResult:
    """Drain :func:`iter_campaign` into a batch :class:`CampaignResult`."""
    cache, events = _prepare_stream(spec, cache)
    records: List[ScenarioRecord] = []
    progress: Optional[CampaignProgress] = None
    for record, progress in events:
        records.append(record)
    return CampaignResult(
        records,
        cache,
        fidelity_evaluated=progress.fidelity_evaluated if progress else 0,
        measured_evaluated=progress.measured_evaluated if progress else 0,
    )


def _prepare_stream(
    spec: CampaignSpec,
    cache: Optional[ResultCache],
) -> Tuple[ResultCache, Iterator[Tuple[ScenarioRecord, CampaignProgress]]]:
    """Validate, resolve the policy's cache/store, and open the stream.

    The single body behind :func:`iter_campaign` and :func:`run_spec`, so
    the two paths cannot drift.  Validation runs before any store object
    exists.
    """
    spec.validate()
    write_store = None
    if cache is None:
        cache, write_store = _policy_cache(spec.execution)
    events = _stream_core(
        spec.scenarios(), cache, spec.enrichments, spec.execution, write_store
    )
    return cache, events
