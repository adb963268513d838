"""Backend-conformance, equivalence, migration and concurrency battery.

The :class:`~repro.experiments.store.StoreBackend` contract is what makes
backends interchangeable, so this module tests it three ways:

1. **Conformance** — one parametrized suite runs the full contract
   (round-trip, upgrade/last-write-wins, corrupt-input skip counting,
   ``clear``, insertion order, query semantics) against *every*
   registered backend.
2. **Equivalence** — hypothesis drives identical put sequences into the
   JSONL and SQLite backends and asserts bit-identical observable state
   (put return values, key order, record digests), and a fixed corpus
   asserts identical ``query()`` answers for a battery of filter /
   order / group shapes.
3. **Scale & concurrency** — threads and a ``ProcessPoolExecutor``
   hammer one SQLite store with interleaved puts/upgrades (final state
   must equal the serial oracle); a killed spec campaign over SQLite
   resumes bit-identically; and a 10k-record grid answers filtered /
   grouped / top-k queries via pushdown without deserializing the
   record set (asserted by counting rebuilds).
"""

import hashlib
import itertools
import json
import multiprocessing
import random
import re
import sqlite3
import threading
import types
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.accelerator.metrics import AreaBreakdown, EnergyBreakdown, SimulationResult
from repro.experiments import (
    AxisGrid,
    CampaignSpec,
    ExecutionPolicy,
    FidelityResult,
    MeasuredStats,
    Scenario,
    SqliteStoreBackend,
    StoreBackend,
    detect_store_backend,
    iter_campaign,
    migrate_store,
    open_store,
    run_spec,
    scenario_key,
)
from repro.experiments import store_sqlite as store_sqlite_module
from repro.experiments.store import SCHEMA_VERSION, ArtifactStore, parse_filter
from repro.registry import STORES, RegistryError

KB = 1024
BACKENDS = ("jsonl", "sqlite")

_CASES = itertools.count()


# --------------------------------------------------------------------------- #
# Deterministic fabrication: entries derived purely from the scenario, so
# every process/thread/backend agrees on the payload without simulating.
# --------------------------------------------------------------------------- #


def fake_result(scenario: Scenario, variant: int = 0) -> SimulationResult:
    base = float(
        scenario.buffer_bytes % 977
        + scenario.batch_size * 13
        + len(scenario.model) * 7
        + variant * 1000
    )
    compute = base + 100.0
    memory = base * 2.0 + 50.0
    return SimulationResult(
        design_name=scenario.design,
        workload_name=f"{scenario.model}/{scenario.task}",
        buffer_bytes=scenario.buffer_bytes,
        compute_cycles=compute,
        memory_cycles=memory,
        total_cycles=max(compute, memory) + 10.0,
        traffic_bytes=base * 3.0,
        energy=EnergyBreakdown(dram=base * 0.1, sram=base * 0.01, compute=base * 0.001),
        area=AreaBreakdown(compute=12.5, buffer=base * 0.002),
    )


def fake_fidelity(scenario: Scenario) -> FidelityResult:
    return FidelityResult(
        scheme=scenario.scheme or scenario.design,
        metric="accuracy",
        fp_score=0.9,
        weight_only_score=0.89,
        weight_activation_score=0.88,
        settings_digest="fake",
    )


def fake_measured(scenario: Scenario) -> MeasuredStats:
    return MeasuredStats(
        model=scenario.model,
        sequence_length=scenario.sequence_length or 128,
        batch_size=scenario.batch_size,
        gaussian_pairs=1000 + scenario.batch_size,
        outlier_pairs=10,
        settings_digest="fake",
    )


def entry_digest(entry) -> str:
    payload = {
        "scenario": entry.scenario.to_dict(),
        "result": entry.result.to_dict(),
        "fidelity": None if entry.fidelity is None else entry.fidelity.to_dict(),
        "measured": None if entry.measured is None else entry.measured.to_dict(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def store_digests(store: StoreBackend) -> dict:
    """key → record digest, the bit-identity currency of these tests."""
    return {
        scenario_key(entry.scenario): entry_digest(entry) for entry in store.records()
    }


def corpus_scenarios():
    """A small mixed corpus: several axes vary, scheme includes None."""
    scenarios = []
    for model in ("m-alpha", "m-beta"):
        for design in ("d-one", "d-two"):
            for scheme in (None, "s-x"):
                for buffer_bytes in (256 * KB, 512 * KB, 1024 * KB):
                    scenarios.append(
                        Scenario(
                            model=model,
                            task="t",
                            batch_size=len(model) % 3 + 1,
                            scheme=scheme,
                            design=design,
                            buffer_bytes=buffer_bytes,
                        )
                    )
    return scenarios


def inject_corrupt(store: StoreBackend, n_bad_payload: int, n_wrong_version: int) -> None:
    """Backend-specific corruption: unreadable payloads + future-schema records."""
    if store.backend_name == "jsonl":
        with store.path.open("a", encoding="utf-8") as handle:
            for i in range(n_bad_payload):
                handle.write(f"corrupt line {i}\n")
            for i in range(n_wrong_version):
                scenario = Scenario(model=f"future-{i}")
                handle.write(
                    json.dumps(
                        {
                            "schema_version": SCHEMA_VERSION + 1,
                            "key": scenario_key(scenario, SCHEMA_VERSION + 1),
                            "scenario": scenario.to_dict(),
                            "result": fake_result(scenario).to_dict(),
                        }
                    )
                    + "\n"
                )
        store.refresh()
    else:
        conn = sqlite3.connect(str(store.path))
        with conn:
            for i in range(n_bad_payload):
                conn.execute(
                    "INSERT INTO records (key, schema_version, scenario, result) "
                    "VALUES (?, ?, ?, ?)",
                    (f"bad-payload-{i}", SCHEMA_VERSION, "not json", "not json"),
                )
            for i in range(n_wrong_version):
                scenario = Scenario(model=f"future-{i}")
                conn.execute(
                    "INSERT INTO records (key, schema_version, scenario, result) "
                    "VALUES (?, ?, ?, ?)",
                    (
                        scenario_key(scenario, SCHEMA_VERSION + 1),
                        SCHEMA_VERSION + 1,
                        json.dumps(scenario.to_dict()),
                        json.dumps(fake_result(scenario).to_dict()),
                    ),
                )
        conn.close()
        store.refresh()


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def make_store(backend, tmp_path):
    def factory(name="store"):
        return open_store(tmp_path / name, backend=backend)

    return factory


# --------------------------------------------------------------------------- #
# Conformance: the same suite must pass for every registered backend.
# --------------------------------------------------------------------------- #
class TestBackendConformance:
    def test_both_backends_are_registered_and_satisfy_the_protocol(self, make_store):
        assert set(BACKENDS) <= set(STORES.names())
        assert isinstance(make_store(), StoreBackend)

    def test_round_trip_across_instances(self, make_store):
        scenario = Scenario(design="mokey", buffer_bytes=256 * KB)
        result = fake_result(scenario)
        store = make_store()
        assert store.get(scenario) is None
        assert store.put(scenario, result) is True
        assert store.put(scenario, result) is False  # content-addressed: no dup
        reloaded = make_store()  # a fresh instance, as another process would
        assert reloaded.get(scenario) == result
        assert scenario in reloaded
        assert len(reloaded) == 1
        assert detect_store_backend(store.root) == store.backend_name

    def test_empty_store_reads_do_not_create_files(self, make_store):
        store = make_store("fresh")
        assert store.get(Scenario()) is None
        assert len(store) == 0
        assert store.keys() == []
        assert list(store.records()) == []
        assert list(store.query()) == []
        assert store.query(group_by="model") == []
        assert store.skipped == 0
        assert not store.path.exists()

    def test_upgrade_adds_parts_and_replaces_result(self, make_store):
        scenario = Scenario(design="mokey")
        store = make_store()
        assert store.put(scenario, fake_result(scenario, variant=0)) is True
        assert store.get_fidelity(scenario) is None

        # Offering a missing part upgrades; the new result payload wins.
        fidelity = fake_fidelity(scenario)
        assert store.put(scenario, fake_result(scenario, variant=1), fidelity=fidelity) is True
        assert store.get(scenario) == fake_result(scenario, variant=1)
        assert store.get_fidelity(scenario) == fidelity
        # Re-offering a known part stores nothing (and keeps the result).
        assert store.put(scenario, fake_result(scenario, variant=2), fidelity=fidelity) is False
        assert store.get(scenario) == fake_result(scenario, variant=1)

        measured = fake_measured(scenario)
        assert store.put(scenario, fake_result(scenario, variant=3), measured=measured) is True
        entry = next(iter(store.records()))
        assert entry.fidelity == fidelity  # carried through the second upgrade
        assert entry.measured == measured
        assert store.entry(scenario) == entry
        assert store.entry(Scenario(design="tensor-cores")) is None
        assert entry.result == fake_result(scenario, variant=3)
        assert len(store) == 1

    def test_insertion_order_is_stable_across_upgrades_and_reopens(self, make_store):
        scenarios = [Scenario(buffer_bytes=(i + 1) * 64 * KB) for i in range(5)]
        store = make_store()
        for scenario in scenarios:
            store.put(scenario, fake_result(scenario))
        # Upgrading the first record must not move it to the end.
        store.put(scenarios[0], fake_result(scenarios[0]), fidelity=fake_fidelity(scenarios[0]))
        expected = [scenario_key(s) for s in scenarios]
        assert store.keys() == expected
        assert [scenario_key(e.scenario) for e in store.records()] == expected
        reopened = make_store()
        assert reopened.keys() == expected

    def test_corrupt_and_future_schema_records_are_skipped_not_fatal(self, make_store):
        scenario = Scenario()
        store = make_store()
        store.put(scenario, fake_result(scenario))
        inject_corrupt(store, n_bad_payload=2, n_wrong_version=1)
        reopened = make_store()
        entries = list(reopened.records())  # surfaces lazily-discovered corruption
        assert len(entries) == 1
        assert len(reopened) == 1
        assert reopened.skipped == 3
        assert reopened.get(scenario) == fake_result(scenario)

    def test_store_written_under_bumped_schema_degrades_to_misses(self, make_store):
        # Simulate a store produced entirely by a future code version.
        store = make_store()
        seed = Scenario(model="seed")
        store.put(seed, fake_result(seed))
        store.clear()
        inject_corrupt(store, n_bad_payload=0, n_wrong_version=3)
        reopened = make_store()
        assert list(reopened.records()) == []
        assert len(reopened) == 0
        assert reopened.skipped == 3
        assert reopened.get(Scenario(model="future-0")) is None

    def test_clear_empties_and_store_remains_usable(self, make_store):
        store = make_store()
        scenarios = [Scenario(buffer_bytes=(i + 1) * 64 * KB) for i in range(3)]
        for scenario in scenarios:
            store.put(scenario, fake_result(scenario))
        assert store.clear() == 3
        assert len(store) == 0
        assert store.skipped == 0
        assert store.get(scenarios[0]) is None
        assert store.put(scenarios[0], fake_result(scenarios[0])) is True
        assert len(make_store()) == 1

    def test_put_many_counts_only_new_records(self, make_store):
        scenarios = [Scenario(buffer_bytes=(i + 1) * 64 * KB) for i in range(4)]
        source = make_store("src")
        for scenario in scenarios[:3]:
            source.put(scenario, fake_result(scenario))
        dest = make_store("dst")
        dest.put(scenarios[0], fake_result(scenarios[0]))
        assert dest.put_many(source.records()) == 2  # first one already known
        assert dest.keys() == [scenario_key(s) for s in scenarios[:3]]

    def test_records_is_a_lazy_iterator(self, make_store):
        store = make_store()
        scenarios = [Scenario(buffer_bytes=(i + 1) * 64 * KB) for i in range(4)]
        for scenario in scenarios:
            store.put(scenario, fake_result(scenario))
        stream = store.records()
        assert isinstance(stream, types.GeneratorType)
        assert next(stream).scenario == scenarios[0]
        assert [e.scenario for e in stream] == scenarios[1:]

    def test_query_filters_order_and_limit(self, make_store):
        store = make_store()
        for scenario in corpus_scenarios():
            store.put(scenario, fake_result(scenario))
        only = list(store.query([("model", "==", "m-alpha"), ("buffer_bytes", "<=", 512 * KB)]))
        assert only
        assert all(
            e.scenario.model == "m-alpha" and e.scenario.buffer_bytes <= 512 * KB for e in only
        )
        ordered = list(store.query(order_by="-total_cycles", limit=5))
        assert len(ordered) == 5
        values = [e.result.total_cycles for e in ordered]
        assert values == sorted(values, reverse=True)
        # String filters (the CLI form) behave identically to triples.
        assert [entry_digest(e) for e in store.query(["model=m-alpha"])] == [
            entry_digest(e) for e in store.query([("model", "==", "m-alpha")])
        ]

    def test_query_null_scheme_semantics(self, make_store):
        store = make_store()
        scenarios = corpus_scenarios()
        for scenario in scenarios:
            store.put(scenario, fake_result(scenario))
        with_scheme = list(store.query(["scheme!=none"]))
        without_scheme = list(store.query(["scheme=none"]))
        assert all(e.scenario.scheme is not None for e in with_scheme)
        assert all(e.scenario.scheme is None for e in without_scheme)
        assert len(with_scheme) + len(without_scheme) == len(scenarios)
        # A concrete comparison never matches NULL (SQL three-valued logic).
        assert all(
            e.scenario.scheme is not None for e in store.query([("scheme", "!=", "s-x")])
        ) or not list(store.query([("scheme", "!=", "s-x")]))

    def test_query_group_by_aggregates(self, make_store):
        store = make_store()
        scenarios = corpus_scenarios()
        for i, scenario in enumerate(scenarios):
            store.put(
                scenario,
                fake_result(scenario),
                fidelity=fake_fidelity(scenario) if i % 2 == 0 else None,
            )
        rows = store.query(group_by=("model", "design"))
        assert sum(row["count"] for row in rows) == len(scenarios)
        assert sum(row["with_fidelity"] for row in rows) == (len(scenarios) + 1) // 2
        for row in rows:
            members = [
                e
                for e in scenarios
                if e.model == row["model"] and e.design == row["design"]
            ]
            expected_min = min(fake_result(e).total_cycles for e in members)
            assert row["min_total_cycles"] == pytest.approx(expected_min, rel=1e-12)
        top = store.query(group_by="model", order_by="-count", limit=1)
        assert len(top) == 1

    def test_query_rejects_unknown_fields_with_suggestions(self, make_store):
        store = make_store()
        with pytest.raises(ValueError, match="did you mean 'model'"):
            list(store.query([("modle", "==", "x")]))
        with pytest.raises(ValueError, match="must be a scenario axis"):
            store.query(group_by="total_cycles")
        with pytest.raises(ValueError, match="unknown order_by"):
            list(store.query(order_by="total_cycels"))
        with pytest.raises(ValueError, match="no comparison operator"):
            parse_filter("model")

    @pytest.mark.parametrize(
        "text", ["sequence_length>>3", "sequence_length>=", "a=<3", "model>=3"]
    )
    def test_malformed_filter_fails_in_one_line(self, make_store, text):
        store = make_store()
        scenario = Scenario()
        store.put(scenario, fake_result(scenario))
        with pytest.raises(ValueError, match=re.escape(text)) as info:
            list(store.query([text]))
        assert "\n" not in str(info.value)

    def test_put_after_torn_tail_keeps_the_record(self, make_store):
        store = make_store()
        first, second = Scenario(model="first"), Scenario(model="second")
        store.put(first, fake_result(first))
        if store.backend_name == "jsonl":
            # A writer killed mid-append leaves half a record, unterminated.
            with store.path.open("a", encoding="utf-8") as handle:
                handle.write('{"schema_version": ')
            store.refresh()
        store.put(second, fake_result(second))
        reopened = make_store()
        assert reopened.get(second) == fake_result(second)
        assert len(reopened) == 2
        assert reopened.skipped == (1 if store.backend_name == "jsonl" else 0)

    def test_refresh_makes_external_writes_visible(self, make_store):
        store = make_store()
        scenario = Scenario()
        store.put(scenario, fake_result(scenario))
        assert len(store) == 1
        other = make_store()  # ≈ another process appending to the same root
        late = Scenario(model="late-arrival")
        other.put(late, fake_result(late))
        store.refresh()
        assert len(store) == 2
        assert store.get(late) == fake_result(late)


# --------------------------------------------------------------------------- #
# Cross-backend equivalence.
# --------------------------------------------------------------------------- #

_OP_POOL = [Scenario(model=f"m{i % 3}", buffer_bytes=(i + 1) * 64 * KB) for i in range(6)]

_ops_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(_OP_POOL) - 1),
        st.booleans(),  # offer fidelity
        st.booleans(),  # offer measured
        st.integers(min_value=0, max_value=2),  # result variant
    ),
    max_size=20,
)


class TestCrossBackendEquivalence:
    @given(ops=_ops_st)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_identical_put_sequences_yield_bit_identical_stores(self, tmp_path, ops):
        case = tmp_path / f"case-{next(_CASES)}"
        stores = [open_store(case / name, backend=name) for name in BACKENDS]
        returns = [[], []]
        for index, offer_fidelity, offer_measured, variant in ops:
            scenario = _OP_POOL[index]
            for store, seen in zip(stores, returns):
                seen.append(
                    store.put(
                        scenario,
                        fake_result(scenario, variant=variant),
                        fidelity=fake_fidelity(scenario) if offer_fidelity else None,
                        measured=fake_measured(scenario) if offer_measured else None,
                    )
                )
        jsonl, sqlite_store = stores
        assert returns[0] == returns[1]
        assert jsonl.keys() == sqlite_store.keys()
        assert len(jsonl) == len(sqlite_store)
        assert [entry_digest(e) for e in jsonl.records()] == [
            entry_digest(e) for e in sqlite_store.records()
        ]

    @pytest.fixture(scope="class")
    def query_corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("query-corpus")
        stores = [open_store(root / name, backend=name) for name in BACKENDS]
        for i, scenario in enumerate(corpus_scenarios()):
            for store in stores:
                store.put(
                    scenario,
                    fake_result(scenario, variant=i % 2),
                    fidelity=fake_fidelity(scenario) if i % 3 == 0 else None,
                    measured=fake_measured(scenario) if i % 4 == 0 else None,
                )
        return stores

    @pytest.mark.parametrize(
        "query",
        [
            {},
            {"filters": [("model", "==", "m-alpha")]},
            {"filters": ["buffer_bytes<=524288", "design!=d-two"]},
            {"filters": ["scheme=none"]},
            {"filters": ["scheme!=none"], "order_by": "scheme"},
            # effective_scheme never holds NULL: it is the override when
            # set, else the design name — so filters on it see both kinds.
            {"filters": [("effective_scheme", "==", "s-x")]},
            {"filters": [("effective_scheme", "==", "d-one")]},
            {"filters": ["effective_scheme!=s-x"], "order_by": "effective_scheme"},
            {"filters": [("total_cycles", ">", 500.0)], "order_by": "-energy_joules"},
            {"order_by": "total_cycles", "limit": 7},
            {"order_by": "-buffer_bytes", "limit": 3},
            # The three descending spellings and the explicit ascending one
            # must agree across backends (and with each other, tested below).
            {"order_by": "~total_cycles", "limit": 7},
            {"order_by": "total_cycles:desc", "limit": 7},
            {"order_by": "total_cycles:asc", "limit": 7},
        ],
        ids=repr,
    )
    def test_entry_queries_agree(self, query_corpus, query):
        jsonl, sqlite_store = query_corpus
        a = [entry_digest(e) for e in jsonl.query(**query)]
        b = [entry_digest(e) for e in sqlite_store.query(**query)]
        assert a == b
        assert a or query.get("filters")  # non-filtered shapes must match rows

    @pytest.mark.parametrize(
        "query",
        [
            {"group_by": ("model", "design")},
            {"group_by": "model", "order_by": "-count"},
            {"group_by": ("model", "scheme")},  # a NULL group key
            {"group_by": ("design",), "order_by": "mean_total_cycles", "limit": 2},
            {"filters": ["buffer_bytes>262144"], "group_by": ("model", "design")},
            {"group_by": ("effective_scheme",), "order_by": "~count"},
            {"filters": [("effective_scheme", "!=", "d-two")],
             "group_by": ("model", "effective_scheme")},
        ],
        ids=repr,
    )
    def test_grouped_queries_agree(self, query_corpus, query):
        jsonl, sqlite_store = query_corpus
        a = jsonl.query(**query)
        b = sqlite_store.query(**query)
        assert len(a) == len(b)
        for row_a, row_b in zip(a, b):
            assert set(row_a) == set(row_b)
            for column, value in row_a.items():
                if column.startswith("mean_"):
                    # SQLite's AVG may accumulate in a different order.
                    assert row_b[column] == pytest.approx(value, rel=1e-12)
                else:
                    assert row_b[column] == value, column


# --------------------------------------------------------------------------- #
# Migration.
# --------------------------------------------------------------------------- #
class TestMigration:
    def test_jsonl_sqlite_jsonl_round_trip_is_exact(self, tmp_path):
        source = open_store(tmp_path / "a", backend="jsonl")
        for i, scenario in enumerate(corpus_scenarios()[:10]):
            source.put(
                scenario,
                fake_result(scenario),
                fidelity=fake_fidelity(scenario) if i % 2 == 0 else None,
                measured=fake_measured(scenario) if i % 3 == 0 else None,
            )
        middle = open_store(tmp_path / "b", backend="sqlite")
        assert migrate_store(source, middle) == 10
        back = open_store(tmp_path / "c", backend="jsonl")
        assert migrate_store(middle, back) == 10
        assert back.keys() == source.keys()  # keys AND insertion order
        assert store_digests(back) == store_digests(source)

    def test_migrate_skips_unreadable_source_records(self, tmp_path):
        source = open_store(tmp_path / "src", backend="jsonl")
        good = Scenario(model="good")
        source.put(good, fake_result(good))
        inject_corrupt(source, n_bad_payload=2, n_wrong_version=1)
        dest = open_store(tmp_path / "dst", backend="sqlite")
        assert migrate_store(source, dest) == 1
        assert source.skipped == 3
        assert dest.get(good) == fake_result(good)

    def test_migrate_into_same_store_is_rejected(self, tmp_path):
        store = open_store(tmp_path / "s", backend="sqlite")
        with pytest.raises(ValueError, match="same store"):
            migrate_store(store, open_store(tmp_path / "s", backend="sqlite"))

    def test_mixed_layout_directory_detects_sqlite_first(self, tmp_path):
        root = tmp_path / "both"
        scenario = Scenario()
        open_store(root, backend="jsonl").put(scenario, fake_result(scenario))
        open_store(root, backend="sqlite").put(scenario, fake_result(scenario))
        assert detect_store_backend(root) == "sqlite"
        assert open_store(root).backend_name == "sqlite"
        assert open_store(root, backend="jsonl").backend_name == "jsonl"

    def test_open_store_unknown_backend_suggests_nearest(self, tmp_path):
        with pytest.raises(ValueError, match="did you mean 'sqlite'"):
            open_store(tmp_path, backend="sqlte")

    def test_old_schema_database_gains_backfilled_effective_scheme(self, tmp_path):
        # A database created before the materialised effective_scheme
        # column existed must migrate on open: the column appears, is
        # backfilled from COALESCE(scheme, result design_name), and
        # pushdown answers match a JSONL store holding the same records.
        scenarios = corpus_scenarios()[:8]
        jsonl = open_store(tmp_path / "ref", backend="jsonl")
        for scenario in scenarios:
            jsonl.put(scenario, fake_result(scenario))

        root = tmp_path / "old"
        root.mkdir()
        conn = sqlite3.connect(str(root / SqliteStoreBackend.FILENAME))
        conn.execute(
            """
            CREATE TABLE records (
                key TEXT PRIMARY KEY,
                schema_version INTEGER NOT NULL,
                model TEXT, task TEXT, sequence_length INTEGER,
                batch_size INTEGER, scheme TEXT, design TEXT,
                buffer_bytes INTEGER, activation_buffer_fraction REAL,
                scenario TEXT NOT NULL, result TEXT NOT NULL,
                fidelity TEXT, measured TEXT
            )
            """
        )
        for scenario in scenarios:
            result = fake_result(scenario)
            conn.execute(
                "INSERT INTO records VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    scenario_key(scenario),
                    SCHEMA_VERSION,
                    scenario.model,
                    scenario.task,
                    scenario.sequence_length,
                    scenario.batch_size,
                    scenario.scheme,
                    scenario.design,
                    scenario.buffer_bytes,
                    scenario.activation_buffer_fraction,
                    json.dumps(scenario.to_dict(), sort_keys=True),
                    json.dumps(result.to_dict(), sort_keys=True),
                    None,
                    None,
                ),
            )
        conn.commit()
        conn.close()

        migrated = open_store(root, backend="sqlite")
        inner = migrated._connect(create=False)
        columns = {row[1] for row in inner.execute("PRAGMA table_info(records)")}
        assert "effective_scheme" in columns
        for query in (
            {"filters": [("effective_scheme", "==", "s-x")]},
            {"filters": [("effective_scheme", "==", "d-one")]},
            {"group_by": ("effective_scheme",)},
        ):
            a = jsonl.query(**query)
            b = migrated.query(**query)
            if query.get("group_by"):
                assert len(a) == len(b)
                for row_a, row_b in zip(a, b):
                    for column, value in row_a.items():
                        if column.startswith("mean_"):
                            assert row_b[column] == pytest.approx(value, rel=1e-12)
                        else:
                            assert row_b[column] == value, column
            else:
                assert [entry_digest(e) for e in a] == [entry_digest(e) for e in b]
        # Idempotent: a second opener finds the column and changes nothing.
        again = open_store(root, backend="sqlite")
        assert len(again) == len(scenarios)

    def test_spec_validates_store_backend_names(self, tmp_path):
        spec = CampaignSpec(
            execution=ExecutionPolicy(store=str(tmp_path / "s"), store_backend="sqlite")
        )
        assert spec.validate() is spec
        bad = CampaignSpec(
            execution=ExecutionPolicy(store=str(tmp_path / "s"), store_backend="sqlte")
        )
        with pytest.raises(RegistryError, match="did you mean 'sqlite'"):
            bad.validate()


# --------------------------------------------------------------------------- #
# Concurrency: threads and processes against one SQLite store.
# --------------------------------------------------------------------------- #


def _stress_scenario(i: int) -> Scenario:
    return Scenario(model=f"stress-{i % 4}", batch_size=i % 3 + 1, buffer_bytes=(i + 1) * 64 * KB)


def _stress_put(store: SqliteStoreBackend, i: int, part: int) -> None:
    scenario = _stress_scenario(i)
    store.put(
        scenario,
        fake_result(scenario),
        fidelity=fake_fidelity(scenario) if part == 1 else None,
        measured=fake_measured(scenario) if part == 2 else None,
    )


def _process_stress_worker(root: str, indices, part: int) -> int:
    store = SqliteStoreBackend(root)
    try:
        for i in indices:
            _stress_put(store, i, part)
    finally:
        store.close()
    return len(indices)


def _open_fresh_stores(root: str, rounds: int, barrier) -> None:
    """Each round, put one record into a store nobody has created yet."""
    for round_index in range(rounds):
        barrier.wait(timeout=60)
        store = SqliteStoreBackend(f"{root}/round-{round_index}")
        try:
            _stress_put(store, 0, 0)
        except BaseException:
            barrier.abort()  # release the others at once; this one fails
            raise
        finally:
            store.close()


def _oracle_digests(tmp_path, n: int) -> dict:
    oracle = open_store(tmp_path / "oracle", backend="sqlite")
    for i in range(n):
        scenario = _stress_scenario(i)
        oracle.put(
            scenario,
            fake_result(scenario),
            fidelity=fake_fidelity(scenario),
            measured=fake_measured(scenario),
        )
    return store_digests(oracle)


class TestSqliteConcurrency:
    N = 16

    def test_thread_stress_equals_serial_oracle(self, tmp_path):
        store = SqliteStoreBackend(tmp_path / "shared")
        # Every (scenario, part) op twice over: commutative by construction
        # (same result payload, deterministic parts), so any interleaving
        # must land on the serial-oracle state with no lost records.
        ops = [(i, part) for i in range(self.N) for part in (0, 1, 2)] * 2
        failures = []

        def worker(seed: int) -> None:
            local = ops[:]
            random.Random(seed).shuffle(local)
            try:
                for i, part in local:
                    _stress_put(store, i, part)
            except Exception as exc:  # surfaced after join
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        assert len(store) == self.N  # no lost records
        assert store_digests(store) == _oracle_digests(tmp_path, self.N)

    def test_process_stress_equals_serial_oracle(self, tmp_path):
        root = str(tmp_path / "shared")
        indices = list(range(self.N))
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(_process_stress_worker, root, indices, part)
                for part in (0, 1, 2, 0, 1, 2)
            ]
            assert [f.result() for f in futures] == [self.N] * 6
        store = SqliteStoreBackend(root)
        assert len(store) == self.N
        assert store_digests(store) == _oracle_digests(tmp_path, self.N)

    def test_processes_creating_one_fresh_store_at_once(self, tmp_path):
        # The switch of a fresh database to WAL mode answers a concurrent
        # opener with an immediate "database is locked" (no busy wait);
        # four processes meeting at a barrier hit it within a few rounds.
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(4)
        procs = [
            ctx.Process(target=_open_fresh_stores, args=(str(tmp_path), 40, barrier))
            for _ in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(120)
        assert [proc.exitcode for proc in procs] == [0] * 4
        for round_index in range(40):
            assert len(SqliteStoreBackend(tmp_path / f"round-{round_index}")) == 1

    def test_killed_sqlite_campaign_resumes_bit_identically(self, tmp_path):
        def spec(store_dir):
            return CampaignSpec(
                name="sqlite-resume",
                axes=AxisGrid(
                    designs=("mokey", "tensor-cores"), buffer_bytes=(256 * KB, 512 * KB)
                ),
                execution=ExecutionPolicy(
                    executor="serial", store=str(store_dir), store_backend="sqlite"
                ),
            )

        fresh = run_spec(spec(tmp_path / "fresh"))
        assert fresh.simulated_count == 4
        assert detect_store_backend(tmp_path / "fresh") == "sqlite"

        events = iter_campaign(spec(tmp_path / "killed"))
        next(events)
        events.close()  # the kill: one record persisted, three missing
        killed = open_store(tmp_path / "killed")
        assert len(killed) == 1

        resumed = run_spec(spec(tmp_path / "killed"))
        assert resumed.simulated_count == 3
        assert sum(1 for r in resumed if r.cached) == 1
        assert store_digests(open_store(tmp_path / "killed")) == store_digests(
            open_store(tmp_path / "fresh")
        )


# --------------------------------------------------------------------------- #
# Pushdown at scale: the 10k-record acceptance test.
# --------------------------------------------------------------------------- #
class TestSqlitePushdownScale:
    GRID = 10_000

    @pytest.fixture(scope="class")
    def big_store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("bulk") / "big"
        store = SqliteStoreBackend(root)
        scenarios = [
            Scenario(
                model=f"model-{i % 5}",
                task=f"task-{i % 3}",
                batch_size=i % 8 + 1,
                sequence_length=64 + i,  # guarantees 10k distinct scenarios
                design=f"design-{i % 4}",
                buffer_bytes=(i % 50 + 1) * 64 * KB + (i // 2000) * KB,
            )
            for i in range(self.GRID)
        ]
        assert len({scenario_key(s) for s in scenarios}) == self.GRID
        from repro.experiments import StoreEntry

        stored = store.put_many(
            StoreEntry(s, fake_result(s), None, None) for s in scenarios
        )
        assert stored == self.GRID
        return store, scenarios

    @pytest.fixture
    def rebuild_counter(self, monkeypatch):
        calls = {"n": 0}
        real = store_sqlite_module.Scenario

        class CountingScenario:
            @staticmethod
            def from_dict(data):
                calls["n"] += 1
                return real.from_dict(data)

        monkeypatch.setattr(store_sqlite_module, "Scenario", CountingScenario)
        return calls

    def test_grouped_report_deserializes_nothing(self, big_store, rebuild_counter):
        store, scenarios = big_store
        rows = store.query(
            filters=["buffer_bytes<=1048576"], group_by=("model", "design"), order_by="-count"
        )
        assert rebuild_counter["n"] == 0  # pure pushdown: no payload rebuilt
        expected = {}
        for s in scenarios:
            if s.buffer_bytes <= 1048576:
                key = (s.model, s.design)
                expected[key] = expected.get(key, 0) + 1
        assert {(r["model"], r["design"]): r["count"] for r in rows} == expected
        counts = [r["count"] for r in rows]
        assert counts == sorted(counts, reverse=True)

    def test_top_k_deserializes_only_k_records(self, big_store, rebuild_counter):
        store, scenarios = big_store
        top = list(
            store.query(
                filters=[("model", "==", "model-1")], order_by="-total_cycles", limit=10
            )
        )
        assert len(top) == 10
        assert rebuild_counter["n"] == 10  # only the surviving rows rebuilt
        expected = sorted(
            (fake_result(s).total_cycles for s in scenarios if s.model == "model-1"),
            reverse=True,
        )[:10]
        assert [e.result.total_cycles for e in top] == expected

    def test_records_prefix_read_is_streaming(self, big_store, rebuild_counter):
        store, _scenarios = big_store
        stream = store.records()
        for _ in range(3):
            next(stream)
        stream.close()
        assert rebuild_counter["n"] == 3
