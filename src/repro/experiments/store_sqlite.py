"""Indexed SQLite artifact-store backend for large campaign grids.

Implements the :class:`~repro.experiments.store.StoreBackend` contract
over a single SQLite database (``<root>/records.sqlite``) with

* a real, indexed column per scenario axis (model, task,
  sequence_length, batch_size, scheme, design, buffer_bytes,
  activation_buffer_fraction) plus a materialised, indexed
  ``effective_scheme`` column (the scheme override, else the result's
  design name — what the report's scheme column shows) and the content
  key as primary key, so
  :meth:`SqliteStoreBackend.query` pushes filters, grouping, ordering
  and limits into the engine instead of deserializing every record;
* JSON payload columns for the scenario/result/fidelity/measured
  parts, extracted on demand (``json_extract``) for metric filters;
* WAL journaling + ``BEGIN IMMEDIATE`` write transactions with a busy
  timeout, so concurrent shard writers — threads or processes — can
  interleave puts and upgrades against one store without losing
  records (the stress tests in ``tests/test_store_backends.py`` hammer
  exactly this).

Record semantics (keys, last-write-wins upgrades, insertion order via
rowid, degrade-don't-crash on unreadable rows) match the JSONL backend
bit-for-bit; ``repro store migrate`` converts either direction
losslessly.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.accelerator.metrics import SimulationResult
from repro.experiments.accuracy import FidelityResult
from repro.experiments.measured import MeasuredStats
from repro.experiments.scenario import Scenario
from repro.experiments.store import (
    AXIS_FIELDS,
    GROUP_METRICS,
    QUERY_FIELDS,
    SCHEMA_VERSION,
    STORES,
    Filter,
    StoreEntry,
    _QueryPlan,
    scenario_key,
)

__all__ = ["SqliteStoreBackend", "SQLITE_FILENAME"]

SQLITE_FILENAME = "records.sqlite"

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


def _dumps(payload: Optional[dict]) -> Optional[str]:
    if payload is None:
        return None
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class SqliteStoreBackend:
    """WAL-mode SQLite implementation of the artifact-store contract.

    One connection per thread (SQLite connections are not thread-safe);
    every write runs inside a ``BEGIN IMMEDIATE`` transaction with
    retry-on-busy, so any number of threads or processes may share the
    same database file.  Reads never create the store — a missing
    database is an empty store, mirroring the JSONL backend.
    """

    backend_name = "sqlite"
    FILENAME = SQLITE_FILENAME

    #: How long a writer waits on a locked database before giving up.
    BUSY_TIMEOUT_S = 30.0

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        self.path = self.root / self.FILENAME
        self._local = threading.local()
        self._connections: List[sqlite3.Connection] = []
        self._conn_lock = threading.Lock()
        # Keys of rows whose payload failed to rebuild (counted as
        # skipped alongside wrong-schema-version rows).
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
        backfill expression matches the Python evaluator exactly —
        ``COALESCE(scheme, json_extract(result, '$.design_name'))`` — so
        answers stay bit-identical to the JSONL backend.  Runs inside one
        immediate transaction; a concurrent opener that raced the ALTER
        re-checks and finds the column already present.
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
        key, scenario_json, result_json, fidelity_json, measured_json = row
        try:
            scenario = Scenario.from_dict(json.loads(scenario_json))
            result = SimulationResult.from_dict(json.loads(result_json))
            fidelity = (
                None if fidelity_json is None else FidelityResult.from_dict(json.loads(fidelity_json))
            )
            measured = (
                None if measured_json is None else MeasuredStats.from_dict(json.loads(measured_json))
            )
        except (ValueError, KeyError, TypeError, AttributeError):
            self._corrupt.add(key)
            return None
        return StoreEntry(scenario, result, fidelity, measured)

    # -- read surface -----------------------------------------------------

    @property
    def skipped(self) -> int:
        """Stored records this code version cannot read (wrong schema
        version, unparseable payloads discovered so far)."""
        conn = self._connect(create=False)
        if conn is None:
            return 0
        (stale,) = conn.execute(
            "SELECT COUNT(*) FROM records WHERE schema_version != ?", (SCHEMA_VERSION,)
        ).fetchone()
        return int(stale) + len(self._corrupt)

    def __len__(self) -> int:
        conn = self._connect(create=False)
        if conn is None:
            return 0
        (count,) = conn.execute(
            "SELECT COUNT(*) FROM records WHERE schema_version = ?", (SCHEMA_VERSION,)
        ).fetchone()
        return int(count) - sum(1 for _ in self._corrupt)

    def __contains__(self, scenario: Scenario) -> bool:
        return self.entry(scenario) is not None

    def entry(self, scenario: Scenario) -> Optional[StoreEntry]:
        """The whole stored record for ``scenario`` (one indexed read), or ``None``."""
        key = scenario_key(scenario)
        conn = self._connect(create=False)
        if conn is None or key in self._corrupt:
            return None
        row = conn.execute(
            f"SELECT {_PAYLOAD_COLUMNS} FROM records WHERE key = ? AND schema_version = ?",
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
            "SELECT key FROM records WHERE schema_version = ? ORDER BY rowid",
            (SCHEMA_VERSION,),
        ).fetchall()
        return [key for (key,) in rows if key not in self._corrupt]

    def records(self) -> Iterator[StoreEntry]:
        """All readable entries, in insertion order, as a lazy cursor scan.

        Rows stream straight off a SQLite cursor (rowid order — stable
        under upgrades, which UPDATE in place), so a prefix read only
        deserializes the prefix; rows that fail to rebuild are counted
        into :attr:`skipped` and skipped.
        """
        conn = self._connect(create=False)
        if conn is None:
            return
        cursor = conn.execute(
            f"SELECT {_PAYLOAD_COLUMNS} FROM records WHERE schema_version = ? ORDER BY rowid",
            (SCHEMA_VERSION,),
        )
        for row in cursor:
            entry = self._rebuild(row)
            if entry is not None:
                yield entry

    def refresh(self) -> None:
        """Forget remembered corrupt rows; SQLite reads are always live."""
        self._corrupt = set()

    # -- query pushdown ---------------------------------------------------

    def query(
        self,
        filters: Iterable[Union[str, Filter]] = (),
        group_by: Optional[Union[str, Sequence[str]]] = None,
        order_by: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Union[Iterator[StoreEntry], List[Dict[str, Any]]]:
        """Filtered (and optionally grouped) view, evaluated inside SQLite.

        Same signature and row semantics as
        :meth:`repro.experiments.store.ArtifactStore.query` — the shared
        :class:`~repro.experiments.store._QueryPlan` validates the query,
        then compiles here to a single SQL statement over the indexed
        axis columns (metrics via ``json_extract``), so filtering,
        grouping, ordering and ``limit`` all happen server-side and only
        the surviving rows are deserialized.
        """
        plan = _QueryPlan.build(filters, group_by, order_by, limit)
        conn = self._connect(create=False)
        if conn is None:
            if plan.group_fields:
                return []
            return iter(())
        where, params = self._compile_filters(plan)
        if plan.group_fields:
            return self._query_groups(conn, plan, where, params)
        return self._query_entries(conn, plan, where, params)

    @staticmethod
    def _compile_filters(plan: _QueryPlan) -> Tuple[List[str], List[Any]]:
        where = ["schema_version = ?"]
        params: List[Any] = [SCHEMA_VERSION]
        for field, op, value in plan.filters:
            if value is None:
                where.append(f"{field.sql} IS {'NULL' if op == '==' else 'NOT NULL'}")
            else:
                where.append(f"{field.sql} {'=' if op == '==' else op} ?")
                params.append(value)
        return where, params

    def _query_entries(
        self, conn: sqlite3.Connection, plan: _QueryPlan, where: List[str], params: List[Any]
    ) -> Iterator[StoreEntry]:
        order = ["rowid"]
        if plan.order_field is not None:
            field = QUERY_FIELDS[plan.order_field]
            # NULLs first ASC / last DESC is SQLite's default placement,
            # matching the plan's Python sort key.
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
        # order_by fall back to the default key order, exactly like the JSONL
        # plan's stable sort over key-ordered rows.
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

        Same last-write-wins upgrade semantics as the JSONL backend: an
        existing record only changes when a missing part (fidelity /
        measured) is offered, and the upgrade replaces the scenario and
        result payloads while keeping the row's original insertion
        position (UPDATE leaves rowid unchanged).  The decision and the
        write happen in one ``BEGIN IMMEDIATE`` transaction, so
        concurrent upgraders never lose a part.
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
            "SELECT fidelity, measured FROM records WHERE key = ? AND schema_version = ?",
            (key, SCHEMA_VERSION),
        ).fetchone()
        if row is not None:
            existing_fidelity, existing_measured = row
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
        stored anything (bulk-load / migration fast path)."""
        conn = self._connect(create=True)

        def work(c: sqlite3.Connection) -> int:
            return sum(
                1
                for entry in entries
                if self._put_locked(c, entry.scenario, entry.result, entry.fidelity, entry.measured)
            )

        return self._write(conn, work)

    def clear(self) -> int:
        """Delete every record; returns how many current-schema records existed.

        The database file itself remains (WAL and connections stay
        valid), so other writers sharing the store keep working.
        """
        conn = self._connect(create=False)
        if conn is None:
            return 0

        def work(c: sqlite3.Connection) -> int:
            (count,) = c.execute(
                "SELECT COUNT(*) FROM records WHERE schema_version = ?", (SCHEMA_VERSION,)
            ).fetchone()
            c.execute("DELETE FROM records")
            return int(count) - sum(1 for _ in self._corrupt)

        count = self._write(conn, work)
        self._corrupt = set()
        return count


STORES.register("sqlite", SqliteStoreBackend)
