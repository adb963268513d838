"""The content-addressed artifact store for simulation results.

The store makes campaigns incremental across processes: every simulated
:class:`~repro.experiments.scenario.Scenario` is persisted under a stable
content hash of the scenario (plus the record schema version), and later
campaigns — in this process or any other — resolve identical grid points
from disk instead of re-simulating them.

:class:`ArtifactStore` keeps the records in one SQLite database,
``<root>/records.sqlite`` (WAL mode), with a real, indexed column per
scenario axis, so :meth:`ArtifactStore.query` filters, orders, groups
and limits inside SQLite, and concurrent shard writers (threads or
processes) interleave safely.  Every campaign, ``repro serve``, the
serving simulator and the CLI open a store directory the same way, so
they all see the same records.

The store guarantees:

* **Content addressing** — records are keyed by :func:`scenario_key`;
  two processes always agree on the key of a scenario.
* **Last-write-wins upgrades** — :meth:`~ArtifactStore.put` on an
  existing key stores nothing unless it *adds* a missing part (fidelity
  and/or measured stats); an upgrade carries every part already known
  plus the new ones, and the upgraded record replaces the old one while
  keeping its original insertion position.
* **Insertion order** — :meth:`~ArtifactStore.keys` and
  :meth:`~ArtifactStore.records` iterate in first-put order, stable
  across upgrades, re-opens, imports and exports.
* **Degrade, never crash** — records written under a different
  ``schema_version`` and records whose payload is not JSON or does not
  rebuild are skipped (surfaced via :attr:`~ArtifactStore.skipped`), so
  a store written by a newer code version degrades to cache misses and a
  garbled row never fails a count, query or report.
* **Streaming** — :meth:`~ArtifactStore.records` and ungrouped
  :meth:`~ArtifactStore.query` results are lazy; consuming a prefix
  does not deserialize the full record set.

JSONL is an interchange format, not a second engine:
:func:`export_jsonl` (``repro store export DIR``) writes the store as one
canonical, self-describing JSON object per line, in insertion order, and
:func:`import_jsonl` (``repro store import DIR``) loads such a log — or
the ``<root>/records.jsonl`` older versions of this package kept as
their store — back in.  Opening a directory that holds only a
``records.jsonl`` is an error naming ``repro store import``, so an
unconverted legacy store never reads as an empty one.  Each line (and
each row's payload columns) is the record::

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
import json
import os
import re
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    TextIO,
    Tuple,
    Union,
)

from repro._registry import nearest_match
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
    "ArtifactStore",
    "QueryField",
    "QUERY_FIELDS",
    "AXIS_FIELDS",
    "GROUP_METRICS",
    "GROUP_AGGREGATES",
    "parse_filter",
    "check_store_backend",
    "open_store",
    "import_jsonl",
    "export_jsonl",
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

SQLITE_FILENAME = "records.sqlite"
#: The JSONL log older versions kept as their store; ``repro store
#: import`` reads it.
JSONL_FILENAME = "records.jsonl"


def scenario_key(scenario: Scenario, schema_version: int = SCHEMA_VERSION) -> str:
    """Stable content hash identifying ``scenario`` under ``schema_version``.

    The key is the first 24 hex digits of the SHA-256 of the canonical
    (sorted-key, compact) JSON of the scenario's fields plus the schema
    version, so two processes always agree on it.
    """
    payload = {"schema_version": schema_version, "scenario": scenario.to_dict()}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def _dumps(payload: Optional[dict]) -> Optional[str]:
    """Canonical (sorted-key, compact) JSON; ``None`` stays ``None``."""
    if payload is None:
        return None
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _record(entry: StoreEntry) -> Dict[str, Any]:
    """The self-describing record form of ``entry`` (without its key)."""
    record: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "scenario": entry.scenario.to_dict(),
        "result": entry.result.to_dict(),
    }
    if entry.fidelity is not None:
        record["fidelity"] = entry.fidelity.to_dict()
    if entry.measured is not None:
        record["measured"] = entry.measured.to_dict()
    return record


def entry_digest(entry: StoreEntry) -> str:
    """SHA-256 of one stored record's canonical content.

    Hashes the full self-describing record form (schema version, scenario,
    result, and whichever joins the entry carries) as canonical JSON, so
    two entries digest equal iff a reader would rebuild identical values
    from them — independent of which process wrote them or in what order.
    """
    return hashlib.sha256(_dumps(_record(entry)).encode("utf-8")).hexdigest()


def store_digest(store: "ArtifactStore") -> Dict[str, str]:
    """Content identity of a whole store: ``{scenario key: record digest}``.

    Insertion order is deliberately *not* part of the identity: shard
    workers appending to one shared store interleave nondeterministically,
    but a multi-worker campaign is bit-identical to a single-process run
    exactly when this mapping matches — same keys, same record digests.
    The equality tests and the service's CI smoke compare stores this way.
    """
    return {scenario_key(e.scenario): entry_digest(e) for e in store.records()}


def _entry_from_payloads(
    scenario: Any, result: Any, fidelity: Any, measured: Any
) -> StoreEntry:
    """Rebuild an entry from its decoded payload parts (may raise)."""
    return StoreEntry(
        Scenario.from_dict(scenario),
        SimulationResult.from_dict(result),
        None if fidelity is None else FidelityResult.from_dict(fidelity),
        None if measured is None else MeasuredStats.from_dict(measured),
    )


#: What a payload that does not rebuild raises; such a record is skipped.
_UNREADABLE = (ValueError, KeyError, TypeError, AttributeError)


# --------------------------------------------------------------------------- #
# Query pushdown: the field/filter/plan model queries are validated against.
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class QueryField:
    """One name filters/``order_by``/``group_by`` can address.

    Attributes:
        name: Public field name.
        kind: ``"axis"`` (a scenario field, an indexed column) or
            ``"metric"`` (a headline number extracted from the stored
            result payload).
        sql: SQL expression over the ``records`` table computing the
            field's value.
        numeric: Values are numbers (else text); a filter value must match.
    """

    name: str
    kind: str
    sql: str
    numeric: bool = True


def _axis_field(name: str) -> QueryField:
    return QueryField(name, "axis", name, numeric=name not in TEXT_AXES)


def _result_metric(name: str) -> QueryField:
    return QueryField(name, "metric", f"json_extract(result, '$.{name}')")


#: Scenario axes addressable by queries — each is an indexed column.
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
        # override when set, else the result's design name — materialised
        # as an indexed column (kind "axis": filterable, groupable,
        # orderable).
        "effective_scheme": QueryField(
            "effective_scheme", "axis", "effective_scheme", numeric=False
        ),
        "compute_cycles": _result_metric("compute_cycles"),
        "memory_cycles": _result_metric("memory_cycles"),
        "total_cycles": _result_metric("total_cycles"),
        "traffic_bytes": _result_metric("traffic_bytes"),
        # Totals are sums of serialized components, added left-to-right in
        # the same order as the EnergyBreakdown/AreaBreakdown ``total``
        # properties, so a query's value equals the property bit-for-bit.
        "energy_joules": QueryField(
            "energy_joules",
            "metric",
            "(json_extract(result, '$.energy.dram')"
            " + json_extract(result, '$.energy.sram')"
            " + json_extract(result, '$.energy.compute'))",
        ),
        "area_mm2": QueryField(
            "area_mm2",
            "metric",
            "(json_extract(result, '$.area.compute')"
            " + json_extract(result, '$.area.buffer'))",
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
    """A validated query, compiled to one SQL statement by :meth:`ArtifactStore.query`.

    Built (and fully validated — unknown fields raise ``ValueError`` with
    a did-you-mean suggestion before any I/O) by :meth:`build`.
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
            # SQLite would compare a text value with a numeric column (or
            # the reverse) by its type-affinity rules and quietly return
            # rows; a mixed-type filter is a mistake, so refuse it.
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

    def where(self) -> Tuple[List[str], List[Any]]:
        """The plan's filters as SQL ``WHERE`` terms and their parameters."""
        where = [_READABLE]
        params: List[Any] = [SCHEMA_VERSION]
        for field, op, value in self.filters:
            if value is None:
                where.append(f"{field.sql} IS {'NULL' if op == '==' else 'NOT NULL'}")
            else:
                where.append(f"{field.sql} {'=' if op == '==' else op} ?")
                params.append(value)
        return where, params


# --------------------------------------------------------------------------- #
# The store.
# --------------------------------------------------------------------------- #

_CREATE_TABLE = """
CREATE TABLE IF NOT EXISTS records (
    key TEXT PRIMARY KEY,
    schema_version INTEGER NOT NULL,
    model TEXT,
    task TEXT,
    sequence_length INTEGER,
    batch_size INTEGER,
    scheme TEXT,
    design TEXT,
    buffer_bytes INTEGER,
    activation_buffer_fraction REAL,
    effective_scheme TEXT,
    scenario TEXT NOT NULL,
    result TEXT NOT NULL,
    fidelity TEXT,
    measured TEXT
)
"""

_PAYLOAD_COLUMNS = "key, scenario, result, fidelity, measured"

#: SQL condition (one ``?``: the schema version) for a row this code can
#: read: the current schema version and well-formed JSON payloads.  Every
#: read applies it, so a row garbled behind the store's back is skipped
#: and counted rather than failing ``json_extract`` mid-query.
_READABLE = (
    "schema_version = ? AND json_valid(scenario) AND json_valid(result)"
    " AND (fidelity IS NULL OR json_valid(fidelity))"
    " AND (measured IS NULL OR json_valid(measured))"
)


class ArtifactStore:
    """Content-addressed scenario → result store in one WAL-mode SQLite file.

    One connection per thread (SQLite connections are not thread-safe);
    every write runs inside a ``BEGIN IMMEDIATE`` transaction with
    retry-on-busy, so any number of threads or processes may share the
    same store.  Reads never create the store — a missing database is an
    empty store.  Layer it under a
    :class:`~repro.experiments.campaign.ResultCache`
    (``ResultCache(store=...)``) to make campaigns incremental across
    processes.

    Raises:
        ValueError: ``root`` holds a legacy ``records.jsonl`` and no
            database; the message names ``repro store import``.
    """

    FILENAME = SQLITE_FILENAME

    #: How long a writer waits on a locked database before giving up.
    BUSY_TIMEOUT_S = 30.0

    def __init__(self, root: Union[str, os.PathLike], *, _importing: bool = False) -> None:
        self.root = Path(root)
        self.path = self.root / self.FILENAME
        if not _importing and not self.path.exists() and (self.root / JSONL_FILENAME).exists():
            raise ValueError(
                f"{self.root} holds a JSONL store ({JSONL_FILENAME}) but no "
                f"{SQLITE_FILENAME}; convert it with 'repro store import {self.root}'"
            )
        self._local = threading.local()
        self._connections: List[sqlite3.Connection] = []
        self._conn_lock = threading.Lock()
        # Keys of readable (see _READABLE) rows whose payload failed to
        # rebuild, counted as skipped alongside the unreadable rows.
        self._corrupt: Set[str] = set()

    # -- connection management -------------------------------------------

    def _connect(self, create: bool) -> Optional[sqlite3.Connection]:
        conn: Optional[sqlite3.Connection] = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        if not create and not self.path.exists():
            return None
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        # isolation_level=None: no implicit transactions; writes manage
        # their own BEGIN IMMEDIATE / COMMIT for multi-writer safety.
        conn = sqlite3.connect(str(self.path), timeout=self.BUSY_TIMEOUT_S, isolation_level=None)
        self._until_unlocked(conn, "PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={int(self.BUSY_TIMEOUT_S * 1000)}")
        conn.execute(_CREATE_TABLE)
        self._ensure_effective_scheme(conn)
        for column in AXIS_FIELDS + ("effective_scheme", "schema_version"):
            conn.execute(
                f"CREATE INDEX IF NOT EXISTS idx_records_{column} ON records ({column})"
            )
        self._local.conn = conn
        with self._conn_lock:
            self._connections.append(conn)
        return conn

    def _ensure_effective_scheme(self, conn: sqlite3.Connection) -> None:
        """Migrate pre-existing databases to the materialised scheme column.

        ``effective_scheme`` holds what the report's scheme column shows
        (the scenario's override, else the result's design name) so the
        ``--scheme``/``effective_scheme`` filter compiles to an indexed
        SQL comparison instead of rebuilding every result payload.  The
        backfill is ``COALESCE(scheme, json_extract(result,
        '$.design_name'))``, the value :meth:`put` writes.  Runs inside
        one immediate transaction; a concurrent opener that raced the
        ALTER re-checks and finds the column already present.
        """
        columns = {row[1] for row in conn.execute("PRAGMA table_info(records)")}
        if "effective_scheme" in columns:
            return
        self._until_unlocked(conn, "BEGIN IMMEDIATE")
        try:
            columns = {row[1] for row in conn.execute("PRAGMA table_info(records)")}
            if "effective_scheme" not in columns:
                conn.execute("ALTER TABLE records ADD COLUMN effective_scheme TEXT")
                conn.execute(
                    "UPDATE records SET effective_scheme = "
                    "COALESCE(scheme, json_extract(result, '$.design_name'))"
                )
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    def close(self) -> None:
        """Close every connection this instance opened (all threads)."""
        with self._conn_lock:
            conns, self._connections = self._connections, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:
                pass
        self._local = threading.local()

    def _until_unlocked(self, conn: sqlite3.Connection, statement: str) -> None:
        """Execute ``statement``, retrying while another connection holds the lock.

        SQLite answers some lock conflicts with an immediate "database is
        locked" instead of waiting out the busy timeout: ``BEGIN
        IMMEDIATE`` against another writer, and the switch of a fresh
        database to WAL mode against another process opening it at the
        same moment.
        """
        deadline = time.monotonic() + self.BUSY_TIMEOUT_S
        while True:
            try:
                conn.execute(statement)
                return
            except sqlite3.OperationalError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.005)

    def _write(self, conn: sqlite3.Connection, work) -> Any:
        """Run ``work(conn)`` inside an immediate transaction, retrying on busy."""
        self._until_unlocked(conn, "BEGIN IMMEDIATE")
        try:
            value = work(conn)
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")
        return value

    # -- row <-> entry ----------------------------------------------------

    def _rebuild(self, row: Sequence[Any]) -> Optional[StoreEntry]:
        key, *payloads = row
        try:
            return _entry_from_payloads(
                *(None if text is None else json.loads(text) for text in payloads)
            )
        except _UNREADABLE:
            self._corrupt.add(key)
            return None

    # -- read surface -----------------------------------------------------

    @property
    def skipped(self) -> int:
        """Stored records this code version cannot read (wrong schema
        version, payloads that are not JSON, and payloads found not to
        rebuild so far)."""
        conn = self._connect(create=False)
        if conn is None:
            return 0
        (unreadable,) = conn.execute(
            f"SELECT COUNT(*) FROM records WHERE NOT ({_READABLE})", (SCHEMA_VERSION,)
        ).fetchone()
        return int(unreadable) + len(self._corrupt)

    def __len__(self) -> int:
        conn = self._connect(create=False)
        if conn is None:
            return 0
        (count,) = conn.execute(
            f"SELECT COUNT(*) FROM records WHERE {_READABLE}", (SCHEMA_VERSION,)
        ).fetchone()
        return int(count) - len(self._corrupt)

    def __contains__(self, scenario: Scenario) -> bool:
        return self.entry(scenario) is not None

    def entry(self, scenario: Scenario) -> Optional[StoreEntry]:
        """The whole stored record for ``scenario`` (one indexed read), or ``None``."""
        key = scenario_key(scenario)
        conn = self._connect(create=False)
        if conn is None or key in self._corrupt:
            return None
        row = conn.execute(
            f"SELECT {_PAYLOAD_COLUMNS} FROM records WHERE key = ? AND {_READABLE}",
            (key, SCHEMA_VERSION),
        ).fetchone()
        if row is None:
            return None
        return self._rebuild(row)

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
        conn = self._connect(create=False)
        if conn is None:
            return []
        rows = conn.execute(
            f"SELECT key FROM records WHERE {_READABLE} ORDER BY rowid",
            (SCHEMA_VERSION,),
        ).fetchall()
        return [key for (key,) in rows if key not in self._corrupt]

    def records(self) -> Iterator[StoreEntry]:
        """All readable entries, in insertion order, one row at a time.

        Each :class:`StoreEntry` unpacks as ``(scenario, result,
        fidelity, measured)``; the optional parts are ``None`` for
        hardware-only records.  The scan walks rowid order (stable under
        upgrades, which UPDATE in place) up to the last row present when
        it started, reading each row only when it is reached: a prefix
        read only deserializes the prefix, rows deleted before they are
        reached (a :meth:`clear`) are not yielded, records put after the
        scan began are not yielded (unless a :meth:`clear` let SQLite
        reuse their rowids), and no read transaction stays open between
        items.  Rows that fail to rebuild are counted into
        :attr:`skipped` and skipped.
        """
        conn = self._connect(create=False)
        if conn is None:
            return
        (last,) = conn.execute("SELECT MAX(rowid) FROM records").fetchone()
        position = 0
        while last is not None:
            row = conn.execute(
                f"SELECT rowid, {_PAYLOAD_COLUMNS} FROM records "
                f"WHERE rowid > ? AND rowid <= ? AND {_READABLE} ORDER BY rowid LIMIT 1",
                (position, last, SCHEMA_VERSION),
            ).fetchone()
            if row is None:
                return
            position, *payloads = row
            entry = self._rebuild(payloads)
            if entry is not None:
                yield entry

    # -- query pushdown ---------------------------------------------------

    def query(
        self,
        filters: Iterable[Union[str, Filter]] = (),
        group_by: Optional[Union[str, Sequence[str]]] = None,
        order_by: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Union[Iterator[StoreEntry], List[Dict[str, Any]]]:
        """Filtered (and optionally grouped) view, evaluated inside SQLite.

        The query is validated first (:class:`_QueryPlan`), then compiled
        to one SQL statement over the indexed axis columns (metrics via
        ``json_extract``), so filtering, grouping, ordering and ``limit``
        all happen in the database and only the surviving rows are
        deserialized.

        Args:
            filters: ``(field, op, value)`` triples or CLI-style strings
                (see :func:`parse_filter`); fields are the scenario axes
                plus the headline result metrics (:data:`QUERY_FIELDS`).
                ``None`` compares with ``IS [NOT] NULL``; any other
                comparison never matches a NULL value.
            group_by: Axis name(s); switches the return value to a list
                of aggregate row dicts (group fields + ``count`` /
                ``with_fidelity`` / ``with_measured`` + min/mean of
                :data:`GROUP_METRICS`), ordered by the group fields.
            order_by: Field to order entries by (or, grouped, a group
                field / aggregate name); prefix ``-`` or ``~`` (or suffix
                ``:desc``) for descending.  NULLs sort first ascending,
                last descending; ties keep insertion (grouped: group key)
                order.
            limit: Keep only the first ``limit`` entries/rows.

        Returns:
            A lazy iterator of :class:`StoreEntry` (no ``group_by``) or a
            list of aggregate row dicts (with ``group_by``).
        """
        plan = _QueryPlan.build(filters, group_by, order_by, limit)
        conn = self._connect(create=False)
        if conn is None:
            if plan.group_fields:
                return []
            return iter(())
        where, params = plan.where()
        if plan.group_fields:
            return self._query_groups(conn, plan, where, params)
        return self._query_entries(conn, plan, where, params)

    def _query_entries(
        self, conn: sqlite3.Connection, plan: _QueryPlan, where: List[str], params: List[Any]
    ) -> Iterator[StoreEntry]:
        order = ["rowid"]
        if plan.order_field is not None:
            field = QUERY_FIELDS[plan.order_field]
            # NULLs first ASC / last DESC is SQLite's default placement.
            order.insert(0, f"{field.sql} {'DESC' if plan.descending else 'ASC'}")
        sql = (
            f"SELECT {_PAYLOAD_COLUMNS} FROM records "
            f"WHERE {' AND '.join(where)} ORDER BY {', '.join(order)}"
        )
        if plan.limit is not None:
            sql += " LIMIT ?"
            params = params + [plan.limit]

        def rows() -> Iterator[StoreEntry]:
            for row in conn.execute(sql, params):
                entry = self._rebuild(row)
                if entry is not None:
                    yield entry

        return rows()

    def _query_groups(
        self, conn: sqlite3.Connection, plan: _QueryPlan, where: List[str], params: List[Any]
    ) -> List[Dict[str, Any]]:
        group_cols = [field.sql for field in plan.group_fields]
        select = [f'{field.sql} AS "{field.name}"' for field in plan.group_fields]
        select.append('COUNT(*) AS "count"')
        select.append('SUM(fidelity IS NOT NULL) AS "with_fidelity"')
        select.append('SUM(measured IS NOT NULL) AS "with_measured"')
        for metric in GROUP_METRICS:
            expr = QUERY_FIELDS[metric].sql
            select.append(f'MIN({expr}) AS "min_{metric}"')
            select.append(f'AVG({expr}) AS "mean_{metric}"')
        # Group keys are always secondary sort keys: ties under an explicit
        # order_by fall back to the default group-key order.
        order_terms = [f'"{field.name}" ASC' for field in plan.group_fields]
        if plan.order_field is not None:
            order_terms.insert(
                0, f'"{plan.order_field}" {"DESC" if plan.descending else "ASC"}'
            )
        order = ", ".join(order_terms)
        sql = (
            f"SELECT {', '.join(select)} FROM records WHERE {' AND '.join(where)} "
            f"GROUP BY {', '.join(group_cols)} ORDER BY {order}"
        )
        if plan.limit is not None:
            sql += " LIMIT ?"
            params = params + [plan.limit]
        cursor = conn.execute(sql, params)
        names = [desc[0] for desc in cursor.description]
        return [dict(zip(names, row)) for row in cursor.fetchall()]

    # -- mutation ---------------------------------------------------------

    def put(
        self,
        scenario: Scenario,
        result: SimulationResult,
        fidelity: Optional[FidelityResult] = None,
        measured: Optional[MeasuredStats] = None,
    ) -> bool:
        """Persist one record; returns ``False`` if nothing new was stored.

        An existing record only changes when a missing part (fidelity /
        measured) is offered: the upgrade carries every part already
        known plus the new one, replaces the scenario and result
        payloads, and keeps the row's original insertion position
        (UPDATE leaves rowid unchanged).  A record that already carries
        everything offered is never rewritten.  A row no read returns
        (one counted in :attr:`skipped`) is absent: the new record
        replaces it.  The decision and the write happen in one ``BEGIN
        IMMEDIATE`` transaction, so concurrent upgraders never lose a
        part.
        """
        conn = self._connect(create=True)
        return self._write(conn, lambda c: self._put_locked(c, scenario, result, fidelity, measured))

    def _put_locked(
        self,
        conn: sqlite3.Connection,
        scenario: Scenario,
        result: SimulationResult,
        fidelity: Optional[FidelityResult],
        measured: Optional[MeasuredStats],
    ) -> bool:
        key = scenario_key(scenario)
        effective_scheme = (
            scenario.scheme if scenario.scheme is not None else result.design_name
        )
        row = conn.execute(
            f"SELECT {_READABLE}, fidelity, measured FROM records WHERE key = ?",
            (SCHEMA_VERSION, key),
        ).fetchone()
        # A row no read can return (see _READABLE and _corrupt) is absent:
        # the new record replaces it rather than being refused as present.
        if row is not None and row[0] and key not in self._corrupt:
            _, existing_fidelity, existing_measured = row
            adds_fidelity = fidelity is not None and existing_fidelity is None
            adds_measured = measured is not None and existing_measured is None
            if not adds_fidelity and not adds_measured:
                return False
            fidelity_json = _dumps(fidelity.to_dict()) if fidelity is not None else existing_fidelity
            measured_json = _dumps(measured.to_dict()) if measured is not None else existing_measured
            conn.execute(
                "UPDATE records SET schema_version = ?, scenario = ?, result = ?, "
                "effective_scheme = ?, fidelity = ?, measured = ? WHERE key = ?",
                (
                    SCHEMA_VERSION,
                    _dumps(scenario.to_dict()),
                    _dumps(result.to_dict()),
                    effective_scheme,
                    fidelity_json,
                    measured_json,
                    key,
                ),
            )
            return True
        self._corrupt.discard(key)
        axis_values = tuple(getattr(scenario, name) for name in AXIS_FIELDS)
        conn.execute(
            f"INSERT OR REPLACE INTO records "
            f"(key, schema_version, {', '.join(AXIS_FIELDS)}, effective_scheme, "
            f"scenario, result, fidelity, measured) "
            f"VALUES ({', '.join('?' * (len(AXIS_FIELDS) + 7))})",
            (key, SCHEMA_VERSION)
            + axis_values
            + (
                effective_scheme,
                _dumps(scenario.to_dict()),
                _dumps(result.to_dict()),
                _dumps(fidelity.to_dict()) if fidelity is not None else None,
                _dumps(measured.to_dict()) if measured is not None else None,
            ),
        )
        return True

    def put_many(self, entries: Iterable[StoreEntry]) -> int:
        """Persist many entries in one write transaction; returns how many
        stored anything (the bulk-load and import path)."""
        conn = self._connect(create=True)

        def work(c: sqlite3.Connection) -> int:
            return sum(
                1
                for entry in entries
                if self._put_locked(c, entry.scenario, entry.result, entry.fidelity, entry.measured)
            )

        return self._write(conn, work)

    def clear(self) -> int:
        """Delete every record; returns how many readable records existed.

        The database file itself remains (WAL and connections stay
        valid), so other writers sharing the store keep working, and the
        directory still opens as a (now empty) store.
        """
        conn = self._connect(create=False)
        if conn is None:
            return 0

        def work(c: sqlite3.Connection) -> int:
            (count,) = c.execute(
                f"SELECT COUNT(*) FROM records WHERE {_READABLE}", (SCHEMA_VERSION,)
            ).fetchone()
            c.execute("DELETE FROM records")
            return int(count) - len(self._corrupt)

        count = self._write(conn, work)
        self._corrupt = set()
        return count


# --------------------------------------------------------------------------- #
# Opening, and JSONL import/export.
# --------------------------------------------------------------------------- #


def check_store_backend(backend: Optional[str]) -> None:
    """Accept only ``None`` or ``"sqlite"`` as a store backend name.

    The store has one engine; the ``store_backend`` arguments of
    :func:`open_store`, ``ExecutionPolicy`` and ``Coordinator`` remain so
    existing callers passing ``"sqlite"`` keep working.
    """
    if backend is None or backend == "sqlite":
        return
    hint = (
        "; JSONL is an import/export format — load a records.jsonl "
        "with 'repro store import DIR'"
        if backend == "jsonl"
        else ""
    )
    raise ValueError(f"store_backend must be null or 'sqlite', got {backend!r}{hint}")


def open_store(
    root: Union[str, os.PathLike], backend: Optional[str] = None
) -> ArtifactStore:
    """``ArtifactStore(root)``, after :func:`check_store_backend` on ``backend``."""
    check_store_backend(backend)
    return ArtifactStore(root)


def import_jsonl(root: Union[str, os.PathLike]) -> Tuple[int, int]:
    """Load ``<root>/records.jsonl`` into the store at ``root``.

    The log is read the way the JSONL store of older versions read it:
    the last line per key wins (an upgrade line carries every part) and
    keeps the key's first-line position, and blank lines are ignored.
    Torn, corrupt and wrong-``schema_version`` lines are counted, not
    fatal.  Keys the store already holds merge under the normal upgrade
    semantics, so importing the same log twice stores nothing new.

    Returns:
        ``(stored, skipped)``: how many records stored anything, and how
        many lines were skipped.

    Raises:
        OSError: the log cannot be read.  Whenever the import fails,
            a database it created is removed again.
    """
    root = Path(root)
    entries: Dict[str, StoreEntry] = {}
    skipped = 0
    with (root / JSONL_FILENAME).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if record.get("schema_version") != SCHEMA_VERSION:
                    raise ValueError("schema version mismatch")
                entry = _entry_from_payloads(
                    record["scenario"], record["result"],
                    record.get("fidelity"), record.get("measured"),
                )
                entries[record.get("key") or scenario_key(entry.scenario)] = entry
            except _UNREADABLE:
                skipped += 1
    store = ArtifactStore(root, _importing=True)
    created = not store.path.exists()
    try:
        return store.put_many(entries.values()), skipped
    except BaseException:
        store.close()
        if created:
            # An empty database left behind would hide the unconverted log.
            for suffix in ("", "-wal", "-shm"):
                (root / (SQLITE_FILENAME + suffix)).unlink(missing_ok=True)
        raise
    finally:
        store.close()


def export_jsonl(store: ArtifactStore, out: TextIO) -> int:
    """Write every readable record of ``store`` to ``out``, one JSONL line each.

    Lines are canonical (sorted keys, compact separators) and come in
    insertion order, an upgraded record once, at its first position — so
    exporting, importing the log into a fresh directory and exporting
    again gives the same bytes.  Returns how many lines were written.
    """
    count = 0
    for entry in store.records():
        record = _record(entry)
        record["key"] = scenario_key(entry.scenario)
        out.write(_dumps(record) + "\n")
        count += 1
    return count
