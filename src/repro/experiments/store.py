"""Pluggable, content-addressed artifact stores for simulation results.

The store makes campaigns incremental across processes: every simulated
:class:`~repro.experiments.scenario.Scenario` is persisted under a stable
content hash of the scenario (plus the record schema version), and later
campaigns — in this process or any other — resolve identical grid points
from disk instead of re-simulating them.

Two backends ship behind one :class:`StoreBackend` contract, registered
in the :data:`STORES` registry:

* :class:`ArtifactStore` — the append-only JSONL backend (the default):
  one self-describing JSON object per line in ``<root>/records.jsonl``,
  loaded into an in-memory index on first access.  Zero dependencies,
  human-greppable, but every query re-parses the whole log and
  concurrent writers from different processes are unsupported.
* :class:`~repro.experiments.store_sqlite.SqliteStoreBackend` — an
  indexed SQLite database in ``<root>/records.sqlite`` (WAL mode), with
  a real column per scenario axis so :meth:`StoreBackend.query` filters,
  orders, groups and limits **server-side**, and concurrent shard
  writers (threads or processes) interleave safely.  The backend for
  million-record campaign grids.

``open_store(root)`` auto-detects which layout a directory holds (a
directory holding both resolves to SQLite; pass ``backend=`` to force)
and :func:`migrate_store` copies one store into another, preserving
insertion order, keys and record digests — so ``repro store migrate``
converts between layouts losslessly.

The protocol contract (see :class:`StoreBackend` for the full method
set) every backend must honour:

* **Content addressing** — records are keyed by :func:`scenario_key`;
  two processes always agree on the key of a scenario.
* **Last-write-wins upgrades** — :meth:`~StoreBackend.put` on an
  existing key stores nothing unless it *adds* a missing part (fidelity
  and/or measured stats); an upgrade carries every part already known
  plus the new ones, and the upgraded record replaces the old one while
  keeping its original insertion position.
* **Insertion order** — :meth:`~StoreBackend.keys` and
  :meth:`~StoreBackend.records` iterate in first-put order, stable
  across upgrades, re-opens and migrations.
* **Degrade, never crash** — records written under a different
  ``schema_version`` and records whose payload does not rebuild are
  skipped (surfaced via :attr:`~StoreBackend.skipped`), so a store
  written by a newer code version degrades to cache misses.
* **Streaming** — :meth:`~StoreBackend.records` and ungrouped
  :meth:`~StoreBackend.query` results are lazy iterators; consuming a
  prefix must not materialise (or deserialize) the full record set.
* **Query pushdown** — :meth:`~StoreBackend.query` evaluates filters /
  ``order_by`` / ``limit`` / ``group_by`` inside the backend; both
  backends return identical rows for identical content (locked by the
  conformance suite in ``tests/test_store_backends.py``).

Each JSONL line (and each SQLite row's payload columns) is a
self-describing record::

    {"schema_version": 1, "key": "<sha256 prefix>",
     "scenario": {...Scenario.to_dict()...},
     "result": {...SimulationResult.to_dict()...},
     "fidelity": {...FidelityResult.to_dict()...},    # optional
     "measured": {...MeasuredStats.to_dict()...}}     # optional

The ``fidelity`` field is the accuracy half of the record (see
:mod:`repro.experiments.accuracy`) and ``measured`` is the measured
index-domain operation mix (see :mod:`repro.experiments.measured`); both
are omitted for hardware-only records, and a later campaign *upgrades*
such a record as described above.  Because unknown fields are tolerated
in both directions, adding these joins needs no ``SCHEMA_VERSION`` bump —
the simulator numerics the key protects are unchanged.

The content key is computed from the canonical JSON of the scenario's
field mapping, so it is stable across processes, platforms, and
``PYTHONHASHSEED`` — unlike ``hash(scenario)``, which keys the in-memory
:class:`~repro.experiments.campaign.ResultCache` only.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro._registry import Registry, describe_by_docstring, nearest_match
from repro.accelerator.metrics import SimulationResult
from repro.experiments.accuracy import FidelityResult
from repro.experiments.measured import MeasuredStats
from repro.experiments.scenario import Scenario

__all__ = [
    "SCHEMA_VERSION",
    "scenario_key",
    "entry_digest",
    "store_digest",
    "StoreEntry",
    "StoreBackend",
    "ArtifactStore",
    "QueryField",
    "QUERY_FIELDS",
    "AXIS_FIELDS",
    "GROUP_METRICS",
    "GROUP_AGGREGATES",
    "parse_filter",
    "STORES",
    "DEFAULT_STORE_BACKEND",
    "detect_store_backend",
    "open_store",
    "migrate_store",
]


class StoreEntry(NamedTuple):
    """One stored record: the scenario, its result and optional joins."""

    scenario: Scenario
    result: SimulationResult
    fidelity: Optional[FidelityResult]
    measured: Optional[MeasuredStats]


# Bump on any change that invalidates stored results: an incompatible
# serialized form of Scenario/SimulationResult, OR an intentional change
# to the simulator's numerics (i.e. whenever tests/goldens.json is
# regenerated).  The key hashes only scenario *inputs*, so without a bump
# an existing store would silently keep serving pre-change results.
# Old-version records are ignored (and re-simulated) rather than misread.
SCHEMA_VERSION = 1

RECORDS_FILENAME = "records.jsonl"


def scenario_key(scenario: Scenario, schema_version: int = SCHEMA_VERSION) -> str:
    """Stable content hash identifying ``scenario`` under ``schema_version``.

    The key is the first 24 hex digits of the SHA-256 of the canonical
    (sorted-key, compact) JSON of the scenario's fields plus the schema
    version, so two processes always agree on it.
    """
    payload = {"schema_version": schema_version, "scenario": scenario.to_dict()}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def entry_digest(entry: StoreEntry) -> str:
    """SHA-256 of one stored record's canonical content.

    Hashes the full self-describing record form (schema version, scenario,
    result, and whichever joins the entry carries) as canonical JSON, so
    two entries digest equal iff a reader would rebuild identical values
    from them — independent of which process wrote them, in what order,
    or under which backend.
    """
    record: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "scenario": entry.scenario.to_dict(),
        "result": entry.result.to_dict(),
    }
    if entry.fidelity is not None:
        record["fidelity"] = entry.fidelity.to_dict()
    if entry.measured is not None:
        record["measured"] = entry.measured.to_dict()
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def store_digest(store: "StoreBackend") -> Dict[str, str]:
    """Content identity of a whole store: ``{scenario key: record digest}``.

    Insertion order is deliberately *not* part of the identity: shard
    workers appending to one shared store interleave nondeterministically,
    but a multi-worker campaign is bit-identical to a single-process run
    exactly when this mapping matches — same keys, same record digests.
    The equality tests and the service's CI smoke compare stores this way.
    """
    return {scenario_key(e.scenario): entry_digest(e) for e in store.records()}


# --------------------------------------------------------------------------- #
# Query pushdown: the shared field/filter/plan model both backends speak.
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class QueryField:
    """One name filters/``order_by``/``group_by`` can address.

    Attributes:
        name: Public field name.
        kind: ``"axis"`` (a scenario field, an indexed column in the
            SQLite backend) or ``"metric"`` (a headline number extracted
            from the stored result payload).
        sql: SQL expression over the SQLite backend's ``records`` table
            computing the field's value.
        get: The same value computed from a :class:`StoreEntry` (what the
            JSONL backend — and the conformance suite — evaluates).
        numeric: Values are numbers (else text); a filter value must match.
    """

    name: str
    kind: str
    sql: str
    get: Callable[[StoreEntry], Any]
    numeric: bool = True


def _axis_field(name: str) -> QueryField:
    return QueryField(
        name, "axis", name, lambda e, _n=name: getattr(e.scenario, _n),
        numeric=name not in TEXT_AXES,
    )


def _result_metric(name: str) -> QueryField:
    return QueryField(
        name,
        "metric",
        f"json_extract(result, '$.{name}')",
        lambda e, _n=name: float(getattr(e.result, _n)),
    )


#: Scenario axes addressable by queries — each is an indexed column in
#: the SQLite backend.
AXIS_FIELDS = (
    "model",
    "task",
    "sequence_length",
    "batch_size",
    "scheme",
    "design",
    "buffer_bytes",
    "activation_buffer_fraction",
)
#: The axes holding names (text); the others hold numbers.
TEXT_AXES = ("model", "task", "scheme", "design")

#: Every field a query can filter or order by, axis columns first.
QUERY_FIELDS: Dict[str, QueryField] = {name: _axis_field(name) for name in AXIS_FIELDS}
QUERY_FIELDS.update(
    {
        # The scheme the report's scheme column displays: the scenario's
        # override when set, else the result's design name.  Derived from
        # the result payload on the JSONL side, but materialised as an
        # indexed column by the SQLite backend so it still compiles to
        # SQL (kind "axis": filterable, groupable, orderable).
        "effective_scheme": QueryField(
            "effective_scheme",
            "axis",
            "effective_scheme",
            lambda e: e.scenario.scheme if e.scenario.scheme is not None
            else e.result.design_name,
            numeric=False,
        ),
        "compute_cycles": _result_metric("compute_cycles"),
        "memory_cycles": _result_metric("memory_cycles"),
        "total_cycles": _result_metric("total_cycles"),
        "traffic_bytes": _result_metric("traffic_bytes"),
        # Totals are sums of serialized components, added left-to-right in
        # the same order as the EnergyBreakdown/AreaBreakdown ``total``
        # properties, so SQL and Python agree bit-for-bit.
        "energy_joules": QueryField(
            "energy_joules",
            "metric",
            "(json_extract(result, '$.energy.dram')"
            " + json_extract(result, '$.energy.sram')"
            " + json_extract(result, '$.energy.compute'))",
            lambda e: e.result.energy.dram + e.result.energy.sram + e.result.energy.compute,
        ),
        "area_mm2": QueryField(
            "area_mm2",
            "metric",
            "(json_extract(result, '$.area.compute')"
            " + json_extract(result, '$.area.buffer'))",
            lambda e: e.result.area.compute + e.result.area.buffer,
        ),
    }
)

#: Metrics aggregated (min + mean) per group row of a grouped query.
GROUP_METRICS = ("total_cycles", "energy_joules")

#: Aggregate column names a grouped query's ``order_by`` may address.
GROUP_AGGREGATES = ("count", "with_fidelity", "with_measured") + tuple(
    f"{agg}_{metric}" for metric in GROUP_METRICS for agg in ("min", "mean")
)

#: Comparison operators filters understand (``=`` is accepted as ``==``).
FILTER_OPS = ("==", "!=", "<", "<=", ">", ">=")

Filter = Tuple[str, str, Any]

#: ``field<op>value``: the field runs up to the first operator character.
_FILTER_RE = re.compile(r"([^<>=!]*)(<=|>=|!=|==|<|>|=)(.*)", re.DOTALL)


def parse_filter(text: str) -> Filter:
    """Parse a CLI-style ``field<op>value`` string into a filter triple.

    ``repro campaign report --where model=bert-base --where
    "total_cycles<=1e9"`` feeds through here: the operator is one of
    ``= == != < <= > >=``, and the value parses as ``None`` (``none`` /
    ``null``), an int, a float, or falls back to a string.
    """
    match = _FILTER_RE.fullmatch(text)
    if match is None:
        raise ValueError(
            f"filter {text!r} has no comparison operator "
            f"(write field<op>value, e.g. model=bert-base or total_cycles<=1e9)"
        )
    field, op, raw = match.group(1).strip(), match.group(2), match.group(3).strip()
    if not field:
        raise ValueError(f"filter {text!r} is missing a field name")
    if not raw or raw[0] in "<>=!":
        raise ValueError(
            f"filter {text!r} needs one operator (= {' '.join(FILTER_OPS)}) and then a value"
        )
    return field, ("==" if op == "=" else op), _parse_filter_value(raw)


def _parse_filter_value(raw: str) -> Any:
    if raw.lower() in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


@dataclass(frozen=True)
class _QueryPlan:
    """A validated query, executable both in Python and as SQL.

    Built (and fully validated — unknown fields raise ``ValueError`` with
    a did-you-mean suggestion before any I/O) by :meth:`build`; the JSONL
    backend runs it via :meth:`entries`/:meth:`groups` over its record
    stream, the SQLite backend compiles the same plan to one SQL
    statement.  Both produce identical rows by contract.
    """

    filters: Tuple[Tuple[QueryField, str, Any], ...]
    group_fields: Tuple[QueryField, ...]
    order_field: Optional[str]
    descending: bool
    limit: Optional[int]

    @classmethod
    def build(
        cls,
        filters: Iterable[Union[str, Filter]] = (),
        group_by: Optional[Union[str, Sequence[str]]] = None,
        order_by: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> "_QueryPlan":
        parsed: List[Tuple[QueryField, str, Any]] = []
        for item in filters or ():
            if isinstance(item, str):
                item = parse_filter(item)
            name, op, value = item
            field = QUERY_FIELDS.get(name)
            if field is None:
                match = nearest_match(name, QUERY_FIELDS)
                hint = f" — did you mean {match!r}?" if match else ""
                raise ValueError(
                    f"unknown query field {name!r}{hint} "
                    f"(fields: {', '.join(QUERY_FIELDS)})"
                )
            op = "==" if op == "=" else op
            if op not in FILTER_OPS:
                raise ValueError(
                    f"unknown filter operator {op!r} (choose from {', '.join(FILTER_OPS)})"
                )
            if value is None and op not in ("==", "!="):
                raise ValueError(
                    f"filter {name!r} {op} None: ordering comparisons need a non-null value"
                )
            # Mixed-type comparisons differ between Python and SQLite
            # (TypeError vs affinity rules): refuse them on both.
            if value is not None and isinstance(value, str) == field.numeric:
                kind = "a numeric" if field.numeric else "a text"
                raise ValueError(
                    f"filter {name}{op}{value!r}: {field.kind} {name!r} needs {kind} value"
                )
            parsed.append((field, op, value))
        group_fields: List[QueryField] = []
        if group_by is not None:
            names = (group_by,) if isinstance(group_by, str) else tuple(group_by)
            for name in names:
                field = QUERY_FIELDS.get(name)
                if field is None or field.kind != "axis":
                    groupable = tuple(
                        f.name for f in QUERY_FIELDS.values() if f.kind == "axis"
                    )
                    match = nearest_match(name, groupable)
                    hint = f" — did you mean {match!r}?" if match else ""
                    raise ValueError(
                        f"group_by field {name!r} must be a scenario axis"
                        f"{hint} (axes: {', '.join(groupable)})"
                    )
                group_fields.append(field)
        order_field: Optional[str] = None
        descending = False
        if order_by:
            # Three descending spellings: '-FIELD' (needs the --order-by=
            # equals form on the CLI, argparse eats the bare '-'), '~FIELD'
            # and 'FIELD:desc' (both safe in the space form).  'FIELD:asc'
            # spells ascending explicitly.
            order_field = str(order_by)
            if order_field[:1] in ("-", "~"):
                descending, order_field = True, order_field[1:]
            if order_field.endswith(":desc"):
                descending, order_field = True, order_field[: -len(":desc")]
            elif order_field.endswith(":asc"):
                descending, order_field = False, order_field[: -len(":asc")]
            valid = (
                tuple(f.name for f in group_fields) + GROUP_AGGREGATES
                if group_fields
                else tuple(QUERY_FIELDS)
            )
            if order_field not in valid:
                match = nearest_match(order_field, valid)
                hint = f" — did you mean {match!r}?" if match else ""
                if group_fields:
                    raise ValueError(
                        f"order_by {order_field!r} must be a group field or aggregate"
                        f"{hint} (choices: {', '.join(valid)})"
                    )
                raise ValueError(
                    f"unknown order_by field {order_field!r}{hint} "
                    f"(fields: {', '.join(valid)})"
                )
        if limit is not None:
            limit = int(limit)
            if limit <= 0:
                raise ValueError(f"limit must be positive, got {limit}")
        return cls(tuple(parsed), tuple(group_fields), order_field, descending, limit)

    # -- Python-side execution (JSONL backend, conformance oracle) -------

    @staticmethod
    def _sort_key(value: Any) -> Tuple[bool, Any]:
        # None sorts first ascending / last descending, matching SQLite's
        # NULL placement under ASC/DESC.
        return (value is not None, value)

    def matches(self, entry: StoreEntry) -> bool:
        for field, op, wanted in self.filters:
            value = field.get(entry)
            if wanted is None:
                ok = (value is None) if op == "==" else (value is not None)
            elif value is None:
                # SQL three-valued logic: NULL never satisfies a concrete
                # comparison (including ``!=``).
                ok = False
            elif op == "==":
                ok = value == wanted
            elif op == "!=":
                ok = value != wanted
            elif op == "<":
                ok = value < wanted
            elif op == "<=":
                ok = value <= wanted
            elif op == ">":
                ok = value > wanted
            else:
                ok = value >= wanted
            if not ok:
                return False
        return True

    def entries(self, records: Iterator[StoreEntry]) -> Iterator[StoreEntry]:
        """Filtered/ordered/limited entries; lazy unless ordering forces a sort."""
        matching: Iterator[StoreEntry] = (e for e in records if self.matches(e))
        if self.order_field is not None:
            field = QUERY_FIELDS[self.order_field]
            matching = iter(
                sorted(
                    matching,
                    key=lambda e: self._sort_key(field.get(e)),
                    reverse=self.descending,
                )
            )
        if self.limit is not None:
            matching = itertools.islice(matching, self.limit)
        return matching

    def groups(self, records: Iterator[StoreEntry]) -> List[Dict[str, Any]]:
        """Aggregate rows per distinct group key (see :data:`GROUP_AGGREGATES`)."""
        accum: Dict[Tuple[Any, ...], List[Any]] = {}
        for entry in records:
            if not self.matches(entry):
                continue
            key = tuple(field.get(entry) for field in self.group_fields)
            acc = accum.get(key)
            if acc is None:
                acc = accum[key] = [0, 0, 0] + [None, 0.0] * len(GROUP_METRICS)
            acc[0] += 1
            if entry.fidelity is not None:
                acc[1] += 1
            if entry.measured is not None:
                acc[2] += 1
            for i, metric in enumerate(GROUP_METRICS):
                value = QUERY_FIELDS[metric].get(entry)
                slot = 3 + 2 * i
                acc[slot] = value if acc[slot] is None else min(acc[slot], value)
                acc[slot + 1] += value
        rows: List[Dict[str, Any]] = []
        for key in sorted(accum, key=lambda k: tuple(self._sort_key(v) for v in k)):
            acc = accum[key]
            row: Dict[str, Any] = {
                field.name: value for field, value in zip(self.group_fields, key)
            }
            row["count"] = acc[0]
            row["with_fidelity"] = acc[1]
            row["with_measured"] = acc[2]
            for i, metric in enumerate(GROUP_METRICS):
                row[f"min_{metric}"] = acc[3 + 2 * i]
                row[f"mean_{metric}"] = acc[3 + 2 * i + 1] / acc[0]
            rows.append(row)
        if self.order_field is not None:
            rows.sort(
                key=lambda r: self._sort_key(r[self.order_field]), reverse=self.descending
            )
        if self.limit is not None:
            rows = rows[: self.limit]
        return rows


# --------------------------------------------------------------------------- #
# The backend protocol.
# --------------------------------------------------------------------------- #


@runtime_checkable
class StoreBackend(Protocol):
    """What every artifact-store backend must implement.

    The contract (conformance-tested for both shipped backends in
    ``tests/test_store_backends.py``; see the module docstring for the
    invariants in prose):

    * ``entry``/``get``/``get_fidelity``/``get_measured`` resolve by
      :func:`scenario_key` and return ``None`` on a miss.
    * ``put`` persists one record, returning ``True`` iff something new
      was stored; re-offering a fully known record is a no-op, offering a
      missing part appends an upgrade carrying everything known.
    * ``keys``/``records`` iterate in first-put order; ``records`` is a
      lazy iterator (a prefix read must not deserialize everything).
    * ``query`` pushes filters / ``group_by`` / ``order_by`` / ``limit``
      into the backend and matches the Python reference semantics of
      :class:`_QueryPlan` exactly.
    * ``skipped`` counts records this code version cannot read (wrong
      ``schema_version``, unparseable payloads) instead of crashing.
    * ``clear`` deletes everything and returns how many records existed;
      ``refresh`` drops any in-memory state so another writer's appends
      become visible.
    """

    #: Registered backend name (``"jsonl"``, ``"sqlite"``, ...).
    backend_name: str
    #: Store directory.
    root: Path
    #: The backing file inside :attr:`root`.
    path: Path

    def entry(self, scenario: Scenario) -> Optional[StoreEntry]: ...

    def get(self, scenario: Scenario) -> Optional[SimulationResult]: ...

    def get_fidelity(self, scenario: Scenario) -> Optional[FidelityResult]: ...

    def get_measured(self, scenario: Scenario) -> Optional[MeasuredStats]: ...

    def put(
        self,
        scenario: Scenario,
        result: SimulationResult,
        fidelity: Optional[FidelityResult] = None,
        measured: Optional[MeasuredStats] = None,
    ) -> bool: ...

    def put_many(self, entries: Iterable[StoreEntry]) -> int: ...

    def keys(self) -> List[str]: ...

    def records(self) -> Iterator[StoreEntry]: ...

    def query(
        self,
        filters: Iterable[Union[str, Filter]] = (),
        group_by: Optional[Union[str, Sequence[str]]] = None,
        order_by: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Union[Iterator[StoreEntry], List[Dict[str, Any]]]: ...

    def clear(self) -> int: ...

    def refresh(self) -> None: ...

    def __len__(self) -> int: ...

    def __contains__(self, scenario: Scenario) -> bool: ...


# --------------------------------------------------------------------------- #
# JSONL backend (the default).
# --------------------------------------------------------------------------- #


class ArtifactStore:
    """Append-only JSONL store of scenario → result records (the default backend).

    Thread-safe; the JSONL log is loaded lazily on first access and kept
    as an in-memory index afterwards (:meth:`refresh` drops it so another
    process's appends become visible).  Layer it under a
    :class:`~repro.experiments.campaign.ResultCache` (``ResultCache(store=...)``)
    to make campaigns incremental across processes.  For indexed
    server-side queries and concurrent shard writers, migrate to the
    SQLite backend (``repro store migrate``).
    """

    backend_name = "jsonl"
    FILENAME = RECORDS_FILENAME

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        self.path = self.root / self.FILENAME
        self._lock = threading.Lock()
        self._index: Optional[Dict[str, StoreEntry]] = None
        #: Lines skipped on load (corrupt, wrong schema version, unreadable).
        self.skipped = 0

    # -- loading ---------------------------------------------------------

    def _load_locked(self) -> Dict[str, StoreEntry]:
        if self._index is not None:
            return self._index
        index: Dict[str, StoreEntry] = {}
        self.skipped = 0
        if self.path.exists():
            with self.path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        if record.get("schema_version") != SCHEMA_VERSION:
                            raise ValueError("schema version mismatch")
                        scenario = Scenario.from_dict(record["scenario"])
                        result = SimulationResult.from_dict(record["result"])
                        raw_fidelity = record.get("fidelity")
                        fidelity = (
                            None if raw_fidelity is None else FidelityResult.from_dict(raw_fidelity)
                        )
                        raw_measured = record.get("measured")
                        measured = (
                            None if raw_measured is None else MeasuredStats.from_dict(raw_measured)
                        )
                        key = record.get("key") or scenario_key(scenario)
                    except (ValueError, KeyError, TypeError, AttributeError):
                        self.skipped += 1
                        continue
                    index[key] = StoreEntry(scenario, result, fidelity, measured)
        self._index = index
        return index

    def refresh(self) -> None:
        """Drop the in-memory index; the next access reloads from disk.

        Call after another process appended to the log to make its
        records (and an up-to-date :attr:`skipped` count) visible here.
        """
        with self._lock:
            self._index = None

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._load_locked())

    def __contains__(self, scenario: Scenario) -> bool:
        with self._lock:
            return scenario_key(scenario) in self._load_locked()

    def entry(self, scenario: Scenario) -> Optional[StoreEntry]:
        """The whole stored record for ``scenario``, or ``None``."""
        with self._lock:
            return self._load_locked().get(scenario_key(scenario))

    def get(self, scenario: Scenario) -> Optional[SimulationResult]:
        """The stored result for ``scenario``, or ``None``."""
        entry = self.entry(scenario)
        return entry.result if entry is not None else None

    def get_fidelity(self, scenario: Scenario) -> Optional[FidelityResult]:
        """The stored fidelity for ``scenario``, or ``None``."""
        entry = self.entry(scenario)
        return entry.fidelity if entry is not None else None

    def get_measured(self, scenario: Scenario) -> Optional[MeasuredStats]:
        """The stored measured stats for ``scenario``, or ``None``."""
        entry = self.entry(scenario)
        return entry.measured if entry is not None else None

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._load_locked())

    def records(self) -> Iterator[StoreEntry]:
        """All stored entries, in insertion order, as a lazy generator.

        Each :class:`StoreEntry` unpacks as ``(scenario, result,
        fidelity, measured)``; the optional parts are ``None`` for
        hardware-only records.  Only the (much smaller) key list is
        snapshotted up front — entries are looked up one at a time, so
        a prefix read never copies the index, and puts interleaved with
        iteration are safe (records put after the snapshot are not
        yielded; a concurrent :meth:`clear` ends the iteration).
        """
        with self._lock:
            keys = list(self._load_locked())
        for key in keys:
            index = self._index
            if index is None:  # cleared/refreshed mid-iteration
                return
            entry = index.get(key)
            if entry is not None:
                yield entry

    def query(
        self,
        filters: Iterable[Union[str, Filter]] = (),
        group_by: Optional[Union[str, Sequence[str]]] = None,
        order_by: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Union[Iterator[StoreEntry], List[Dict[str, Any]]]:
        """Filtered (and optionally grouped) view of the store.

        Args:
            filters: ``(field, op, value)`` triples or CLI-style strings
                (see :func:`parse_filter`); fields are the scenario axes
                plus the headline result metrics (:data:`QUERY_FIELDS`).
            group_by: Axis name(s); switches the return value to a list
                of aggregate row dicts (group fields + ``count`` /
                ``with_fidelity`` / ``with_measured`` + min/mean of
                :data:`GROUP_METRICS`).
            order_by: Field to order entries by (or, grouped, a group
                field / aggregate name); prefix ``-`` for descending.
            limit: Keep only the first ``limit`` entries/rows.

        Returns:
            A lazy iterator of :class:`StoreEntry` (no ``group_by``) or a
            list of aggregate row dicts (with ``group_by``).
        """
        plan = _QueryPlan.build(filters, group_by, order_by, limit)
        if plan.group_fields:
            return plan.groups(self.records())
        return plan.entries(self.records())

    # -- mutation --------------------------------------------------------

    def put(
        self,
        scenario: Scenario,
        result: SimulationResult,
        fidelity: Optional[FidelityResult] = None,
        measured: Optional[MeasuredStats] = None,
    ) -> bool:
        """Persist one record; returns ``False`` if nothing new was stored.

        A record stored without fidelity and/or measured stats is
        *upgraded* when the missing part is provided: a fresh line is
        appended under the same key carrying every part already known plus
        the new one (the last line per key wins on load).  A record that
        already carries everything offered is never rewritten, and the
        no-op path skips serialization entirely (it is the hot path of
        fully-cached re-runs).
        """
        key = scenario_key(scenario)
        with self._lock:
            index = self._load_locked()
            existing = index.get(key)
            if existing is not None:
                adds_fidelity = fidelity is not None and existing.fidelity is None
                adds_measured = measured is not None and existing.measured is None
                if not adds_fidelity and not adds_measured:
                    return False
                # Carry the parts the stored record already has.
                fidelity = fidelity if fidelity is not None else existing.fidelity
                measured = measured if measured is not None else existing.measured
            record = {
                "schema_version": SCHEMA_VERSION,
                "key": key,
                "scenario": scenario.to_dict(),
                "result": result.to_dict(),
            }
            if fidelity is not None:
                record["fidelity"] = fidelity.to_dict()
            if measured is not None:
                record["measured"] = measured.to_dict()
            line = json.dumps(record, sort_keys=True, separators=(",", ":"))
            self.root.mkdir(parents=True, exist_ok=True)
            self._append_line(line)
            index[key] = StoreEntry(scenario, result, fidelity, measured)
            return True

    def _append_line(self, line: str) -> None:
        """Append one record line as a single ``O_APPEND`` write.

        Shared-writer hardening: with ``O_APPEND``, each ``os.write`` is
        one atomic append on local filesystems, so concurrent appenders
        from different processes (the campaign service's shard workers on
        a JSONL store) can interleave whole lines but never splice partial
        ones — the log stays parseable line-by-line.  Note what this does
        *not* give: another process's appends only become visible here
        after :meth:`refresh`, and two processes offered the same missing
        key may both append it (last line per key wins on load, and shard
        workers write disjoint keys anyway).  For heavy concurrent
        writing, the SQLite backend — the service's default — takes real
        transactions instead.  A tail left unterminated (a writer killed
        mid-append) is ended with a newline first, so it stays one skipped
        line instead of swallowing this record.
        """
        data = (line + "\n").encode("utf-8")
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = b"\n" + data
            os.write(fd, data)
        finally:
            os.close(fd)

    def put_many(self, entries: Iterable[StoreEntry]) -> int:
        """Persist many entries (in order); returns how many stored anything."""
        return sum(
            1
            for entry in entries
            if self.put(
                entry.scenario, entry.result, fidelity=entry.fidelity, measured=entry.measured
            )
        )

    def clear(self) -> int:
        """Delete every record; returns how many existed.

        The log is truncated, not removed: like the SQLite backend's
        database file, it stays behind as the marker that the directory
        holds a (now empty) store.  The in-memory index is *invalidated*,
        not replaced: the next access re-reads the log from disk, so
        records appended by another process after the clear — and an
        accurate :attr:`skipped` count — are picked up instead of
        reporting the pre-clear state.
        """
        with self._lock:
            count = len(self._load_locked())
            if self.path.exists():
                self.path.write_bytes(b"")
            self._index = None
            self.skipped = 0
            return count


# --------------------------------------------------------------------------- #
# Backend registry, detection, and migration.
# --------------------------------------------------------------------------- #

#: Backend name → backend class: what ``open_store``/``--store-backend``
#: resolve through (JSONL default, indexed WAL-mode SQLite for big grids
#: and concurrent writers).
STORES = Registry("stores", {}, describe_by_docstring("artifact-store backend"))

#: The backend ``open_store`` falls back to for a fresh directory.
DEFAULT_STORE_BACKEND = "jsonl"


def detect_store_backend(root: Union[str, os.PathLike]) -> Optional[str]:
    """Which backend's layout ``root`` holds, or ``None`` for a fresh dir.

    Checks every registered backend's ``FILENAME`` marker; a directory
    holding both layouts (e.g. mid-migration) resolves to ``sqlite``
    over ``jsonl`` — pass an explicit backend to ``open_store`` to force
    the other.
    """
    root = Path(root)
    preferred = [name for name in ("sqlite", "jsonl") if name in STORES]
    others = [name for name in STORES.names() if name not in preferred]
    for name in preferred + others:
        filename = getattr(STORES.get(name), "FILENAME", None)
        if filename is not None and (root / filename).exists():
            return name
    return None


def open_store(
    root: Union[str, os.PathLike], backend: Optional[str] = None
) -> StoreBackend:
    """Open the store at ``root`` under the named (or detected) backend.

    With ``backend=None`` the directory's existing layout wins
    (:func:`detect_store_backend`); a fresh directory opens as
    :data:`DEFAULT_STORE_BACKEND`.  Unknown names raise ``ValueError``
    with a did-you-mean suggestion.
    """
    if backend is None:
        backend = detect_store_backend(root) or DEFAULT_STORE_BACKEND
    return STORES.get(backend)(root)


def migrate_store(source: StoreBackend, dest: StoreBackend) -> int:
    """Copy every readable record of ``source`` into ``dest``.

    Entries stream in insertion order through ``dest.put_many``, so keys,
    record digests and iteration order are preserved exactly (locked by
    the migration tests); unreadable source records are skipped (counted
    in ``source.skipped``) and keys already present in ``dest`` merge
    under the normal upgrade semantics.  Returns how many records stored
    anything.
    """
    if Path(source.path) == Path(dest.path):
        raise ValueError(
            f"source and destination are the same store ({source.path}); "
            f"migrate into a different directory or backend"
        )
    return dest.put_many(source.records())


STORES.register("jsonl", ArtifactStore)
