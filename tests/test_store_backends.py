"""Store contract, JSONL import/export, concurrency and pushdown battery.

:class:`~repro.experiments.store.ArtifactStore` is the one store engine
(WAL-mode SQLite), and JSONL is its import/export format.  This module
tests it four ways:

1. **Contract** — round-trip, upgrade/last-write-wins (also as a
   hypothesis property against a dict model), corrupt-row skip
   counting, ``clear``, insertion order and query semantics (also
   against a plain-Python reference evaluator, with and without
   garbled rows in the store).
2. **JSONL import/export** — ``export → import → export`` is
   byte-identical; the importer keeps the legacy log's semantics (last
   line per key wins at its first position; torn, corrupt and
   wrong-schema lines are counted in ``skipped``) and lands on a pinned
   ``store_digest``; a directory holding only ``records.jsonl``, and a
   ``"jsonl"`` backend name, fail in one line naming
   ``repro store import``.
3. **Concurrency** — threads and a ``ProcessPoolExecutor`` hammer one
   store with interleaved puts/upgrades (final state must equal the
   serial oracle), and a killed spec campaign resumes bit-identically.
4. **Pushdown at scale** — a 10k-record grid answers filtered /
   grouped / top-k queries without deserializing the record set
   (asserted by counting rebuilds).
"""

import hashlib
import io
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
from repro.cli import main
from repro.experiments import (
    ArtifactStore,
    AxisGrid,
    CampaignSpec,
    ExecutionPolicy,
    FidelityResult,
    MeasuredStats,
    Scenario,
    export_jsonl,
    import_jsonl,
    iter_campaign,
    open_store,
    run_spec,
    scenario_key,
    store_digest,
)
from repro.experiments import store as store_module
from repro.experiments.store import SCHEMA_VERSION, parse_filter
from repro.experiments.store_sqlite import SqliteStoreBackend
from repro.service import Coordinator

KB = 1024

_CASES = itertools.count()


# --------------------------------------------------------------------------- #
# Deterministic fabrication: entries derived purely from the scenario, so
# every process/thread agrees on the payload without simulating.
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


def store_digests(store: ArtifactStore) -> dict:
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


def inject_corrupt(store: ArtifactStore, n_bad_payload: int, n_wrong_version: int) -> None:
    """Unreadable payloads + future-schema rows, written behind the store's back."""
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


def jsonl_line(scenario, result, fidelity=None, schema_version=SCHEMA_VERSION) -> str:
    """One record line exactly as the JSONL store of earlier versions wrote it."""
    record = {
        "schema_version": schema_version,
        "key": scenario_key(scenario, schema_version),
        "scenario": scenario.to_dict(),
        "result": result.to_dict(),
    }
    if fidelity is not None:
        record["fidelity"] = fidelity.to_dict()
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def export_text(store: ArtifactStore) -> str:
    out = io.StringIO()
    export_jsonl(store, out)
    return out.getvalue()


@pytest.fixture
def make_store(tmp_path):
    def factory(name="store"):
        return ArtifactStore(tmp_path / name)

    return factory


# --------------------------------------------------------------------------- #
# Contract.
# --------------------------------------------------------------------------- #
class TestStoreContract:
    def test_both_names_are_one_class(self):
        assert SqliteStoreBackend is ArtifactStore

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
        assert store.path.name == "records.sqlite"

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

    def test_external_writes_are_visible_at_once(self, make_store):
        store = make_store()
        scenario = Scenario()
        store.put(scenario, fake_result(scenario))
        assert len(store) == 1
        other = make_store()  # ≈ another process writing to the same root
        late = Scenario(model="late-arrival")
        other.put(late, fake_result(late))
        assert len(store) == 2
        assert store.get(late) == fake_result(late)

    def test_old_schema_database_gains_backfilled_effective_scheme(self, tmp_path):
        # A database created before the materialised effective_scheme
        # column existed must migrate on open: the column appears, is
        # backfilled from COALESCE(scheme, result design_name), and
        # pushdown answers match a fresh store holding the same records.
        scenarios = corpus_scenarios()[:8]
        fresh = ArtifactStore(tmp_path / "ref")
        for scenario in scenarios:
            fresh.put(scenario, fake_result(scenario))

        root = tmp_path / "old"
        root.mkdir()
        conn = sqlite3.connect(str(root / ArtifactStore.FILENAME))
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

        migrated = ArtifactStore(root)
        inner = migrated._connect(create=False)
        columns = {row[1] for row in inner.execute("PRAGMA table_info(records)")}
        assert "effective_scheme" in columns
        for query in (
            {"filters": [("effective_scheme", "==", "s-x")]},
            {"filters": [("effective_scheme", "==", "d-one")]},
            {"group_by": ("effective_scheme",)},
        ):
            a = fresh.query(**query)
            b = migrated.query(**query)
            if query.get("group_by"):
                assert a == b
            else:
                a = [entry_digest(e) for e in a]
                assert a and a == [entry_digest(e) for e in b]
        # Idempotent: a second opener finds the column and changes nothing.
        again = ArtifactStore(root)
        assert len(again) == len(scenarios)


# --------------------------------------------------------------------------- #
# Put sequences against a dict model of the upgrade semantics.
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


@given(ops=_ops_st)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_put_sequences_follow_the_upgrade_model(tmp_path, ops):
    store = ArtifactStore(tmp_path / f"case-{next(_CASES)}")
    model = {}  # key -> (scenario, result, fidelity, measured), first-put order
    for index, offer_fidelity, offer_measured, variant in ops:
        scenario = _OP_POOL[index]
        result = fake_result(scenario, variant=variant)
        fidelity = fake_fidelity(scenario) if offer_fidelity else None
        measured = fake_measured(scenario) if offer_measured else None
        key = scenario_key(scenario)
        known = model.get(key)
        if known is None:
            expected, model[key] = True, (scenario, result, fidelity, measured)
        elif (fidelity is not None and known[2] is None) or (
            measured is not None and known[3] is None
        ):
            expected = True
            model[key] = (scenario, result, fidelity or known[2], measured or known[3])
        else:
            expected = False
        assert store.put(scenario, result, fidelity=fidelity, measured=measured) is expected
    assert store.keys() == list(model)
    assert [tuple(entry) for entry in store.records()] == list(model.values())


# --------------------------------------------------------------------------- #
# Query semantics against a plain-Python reference evaluator.
# --------------------------------------------------------------------------- #

#: Each query field's value computed from a StoreEntry, independently of
#: the SQL expressions the store compiles.
_REFERENCE_FIELDS = {
    **{name: (lambda e, _n=name: getattr(e.scenario, _n)) for name in store_module.AXIS_FIELDS},
    "effective_scheme": lambda e: (
        e.scenario.scheme if e.scenario.scheme is not None else e.result.design_name
    ),
    **{
        name: (lambda e, _n=name: float(getattr(e.result, _n)))
        for name in ("compute_cycles", "memory_cycles", "total_cycles", "traffic_bytes")
    },
    "energy_joules": lambda e: e.result.energy.dram + e.result.energy.sram + e.result.energy.compute,
    "area_mm2": lambda e: e.result.area.compute + e.result.area.buffer,
}

_COMPARE = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _null_first(value):
    return (value is not None, value)


def reference_query(entries, filters=(), group_by=None, order_by=None, limit=None):
    """What ``ArtifactStore.query`` must return for ``entries`` (insertion order).

    SQL semantics: ``None`` compares with IS [NOT] NULL, any other
    comparison never matches NULL; NULLs sort first ascending, last
    descending; ties keep insertion (grouped: group key) order.
    """
    plan = store_module._QueryPlan.build(filters, group_by, order_by, limit)

    def matches(entry):
        for field, op, wanted in plan.filters:
            value = _REFERENCE_FIELDS[field.name](entry)
            if wanted is None:
                ok = (value is None) == (op == "==")
            else:
                ok = value is not None and _COMPARE[op](value, wanted)
            if not ok:
                return False
        return True

    kept = [entry for entry in entries if matches(entry)]
    if not plan.group_fields:
        if plan.order_field is not None:
            get = _REFERENCE_FIELDS[plan.order_field]
            kept.sort(key=lambda e: _null_first(get(e)), reverse=plan.descending)
        return kept[: plan.limit]
    groups = {}
    for entry in kept:
        key = tuple(_REFERENCE_FIELDS[field.name](entry) for field in plan.group_fields)
        groups.setdefault(key, []).append(entry)
    rows = []
    for key in sorted(groups, key=lambda k: tuple(_null_first(v) for v in k)):
        members = groups[key]
        row = {field.name: value for field, value in zip(plan.group_fields, key)}
        row["count"] = len(members)
        row["with_fidelity"] = sum(e.fidelity is not None for e in members)
        row["with_measured"] = sum(e.measured is not None for e in members)
        for metric in store_module.GROUP_METRICS:
            values = [_REFERENCE_FIELDS[metric](e) for e in members]
            row[f"min_{metric}"] = min(values)
            row[f"mean_{metric}"] = sum(values) / len(values)
        rows.append(row)
    if plan.order_field is not None:
        rows.sort(key=lambda r: _null_first(r[plan.order_field]), reverse=plan.descending)
    return rows[: plan.limit]


class TestQueryReference:
    @pytest.fixture(scope="class")
    def query_corpus(self, tmp_path_factory):
        from repro.experiments import StoreEntry

        store = ArtifactStore(tmp_path_factory.mktemp("query-corpus") / "store")
        entries = []
        for i, scenario in enumerate(corpus_scenarios()):
            entry = StoreEntry(
                scenario,
                fake_result(scenario, variant=i % 2),
                fake_fidelity(scenario) if i % 3 == 0 else None,
                fake_measured(scenario) if i % 4 == 0 else None,
            )
            store.put(*entry)
            entries.append(entry)
        return store, entries

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
            # The three descending spellings and the explicit ascending one.
            {"order_by": "~total_cycles", "limit": 7},
            {"order_by": "total_cycles:desc", "limit": 7},
            {"order_by": "total_cycles:asc", "limit": 7},
        ],
        ids=repr,
    )
    def test_entry_queries_match_the_reference(self, query_corpus, query):
        store, entries = query_corpus
        got = [entry_digest(e) for e in store.query(**query)]
        assert got == [entry_digest(e) for e in reference_query(entries, **query)]
        assert got or query.get("filters")  # non-filtered shapes must match rows

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
    def test_grouped_queries_match_the_reference(self, query_corpus, query):
        store, entries = query_corpus
        got = store.query(**query)
        expected = reference_query(entries, **query)
        assert got and len(got) == len(expected)
        for row, want in zip(got, expected):
            assert set(row) == set(want)
            for column, value in want.items():
                if column.startswith("mean_"):
                    # SQLite's AVG may accumulate in a different order.
                    assert row[column] == pytest.approx(value, rel=1e-12)
                else:
                    assert row[column] == value, column

    @pytest.mark.parametrize(
        "query",
        [
            {"filters": [("total_cycles", ">", 0.0)]},
            {"order_by": "-energy_joules"},
            {"group_by": ("model",), "order_by": "mean_total_cycles"},
        ],
        ids=repr,
    )
    def test_unreadable_rows_never_fail_a_query(self, tmp_path, query):
        # A row garbled behind the store's back is skipped, not handed to
        # json_extract (which raises "malformed JSON" on it).
        store = ArtifactStore(tmp_path / "store")
        for scenario in corpus_scenarios()[:6]:
            store.put(scenario, fake_result(scenario))
        entries = list(store.records())
        inject_corrupt(store, n_bad_payload=2, n_wrong_version=1)
        got = store.query(**query)
        expected = reference_query(entries, **query)
        if query.get("group_by"):
            assert [row["count"] for row in got] == [row["count"] for row in expected]
        else:
            assert [entry_digest(e) for e in got] == [entry_digest(e) for e in expected]
        assert store.skipped == 3


# --------------------------------------------------------------------------- #
# JSONL import/export.
# --------------------------------------------------------------------------- #

_A, _B = Scenario(model="legacy-a"), Scenario(model="legacy-b", design="gobo")

#: ``store_digest`` of :func:`legacy_log` as loaded by the JSONL store of
#: earlier versions: what an import must reproduce.
LEGACY_DIGEST = {
    "c21903eb60e37b29b5f5fe49": "0fef3eb5b7864cd3f783e4fddcd3646224438e74d3498d7f125859f43b992259",
    "8cfb69bca5bd773296c7b7e9": "85df38a032ae13de185aafdc318e90d0fcadbcc00113debc5ca4a320d09b7b5a",
}


def legacy_log() -> str:
    """A legacy ``records.jsonl``: an upgrade pair, bad lines, a torn tail."""
    return (
        jsonl_line(_A, fake_result(_A))
        + jsonl_line(_B, fake_result(_B))
        # The upgrade of A: a second line under A's key, carrying fidelity
        # and a new result; it wins, at A's first position.
        + jsonl_line(_A, fake_result(_A, variant=1), fidelity=fake_fidelity(_A))
        + "corrupt line\n"
        + "\n"
        + jsonl_line(Scenario(model="future"), fake_result(_A), schema_version=SCHEMA_VERSION + 1)
        + json.dumps({"schema_version": SCHEMA_VERSION, "key": "no-payload"}) + "\n"
        # A writer killed mid-append leaves half a record, unterminated.
        + '{"schema_version": '
    )


class TestJsonlImportExport:
    def test_legacy_log_imports_to_the_pinned_digest(self, tmp_path):
        (tmp_path / "records.jsonl").write_text(legacy_log(), encoding="utf-8")
        assert import_jsonl(tmp_path) == (2, 4)  # corrupt, future, no-payload, torn
        store = ArtifactStore(tmp_path)
        assert store_digest(store) == LEGACY_DIGEST
        assert store.keys() == [scenario_key(_A), scenario_key(_B)]
        assert store.get_fidelity(_A) == fake_fidelity(_A)
        assert store.get(_A) == fake_result(_A, variant=1)

    def test_export_import_export_is_byte_identical(self, tmp_path):
        source = ArtifactStore(tmp_path / "a")
        for i, scenario in enumerate(corpus_scenarios()[:10]):
            source.put(
                scenario,
                fake_result(scenario),
                fidelity=fake_fidelity(scenario) if i % 2 == 0 else None,
                measured=fake_measured(scenario) if i % 3 == 0 else None,
            )
        # An upgrade keeps its record's first position in the export.
        last = corpus_scenarios()[9]
        source.put(last, fake_result(last), fidelity=fake_fidelity(last))
        exported = export_text(source)
        assert len(exported.splitlines()) == 10
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "records.jsonl").write_text(exported, encoding="utf-8")
        assert import_jsonl(tmp_path / "b") == (10, 0)
        copy = ArtifactStore(tmp_path / "b")
        assert copy.keys() == source.keys()  # keys AND insertion order
        assert store_digest(copy) == store_digest(source)
        assert export_text(copy) == exported

    def test_export_lines_are_the_legacy_line_form(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(_A, fake_result(_A), fidelity=fake_fidelity(_A))
        assert export_text(store) == jsonl_line(_A, fake_result(_A), fake_fidelity(_A))

    def test_import_merges_and_a_second_import_stores_nothing(self, tmp_path):
        (tmp_path / "records.jsonl").write_text(legacy_log(), encoding="utf-8")
        assert import_jsonl(tmp_path)[0] == 2
        assert import_jsonl(tmp_path)[0] == 0
        assert len(ArtifactStore(tmp_path)) == 2

    def test_missing_log_fails_and_creates_nothing(self, tmp_path):
        with pytest.raises(OSError):
            import_jsonl(tmp_path)
        assert not (tmp_path / "records.sqlite").exists()

    def test_failed_import_leaves_the_log_unconverted(self, tmp_path, monkeypatch):
        (tmp_path / "records.jsonl").write_text(legacy_log(), encoding="utf-8")

        def fail(*args, **kwargs):
            raise RuntimeError("disk gone")

        monkeypatch.setattr(ArtifactStore, "_put_locked", fail)
        with pytest.raises(RuntimeError, match="disk gone"):
            import_jsonl(tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["records.jsonl"]
        monkeypatch.undo()
        with pytest.raises(ValueError, match="repro store import"):
            ArtifactStore(tmp_path)
        assert import_jsonl(tmp_path) == (2, 4)

    def test_cli_export_import_export_round_trip(self, tmp_path, capsys):
        store = tmp_path / "store"
        argv = ["campaign", "run", "--designs", "mokey", "tensor-cores",
                "--buffer-kb", "256", "512", "--store", str(store)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["store", "export", str(store)]) == 0
        first = capsys.readouterr()
        assert len(first.out.splitlines()) == 4
        assert "exported 4 records" in first.err
        (tmp_path / "copy").mkdir()
        (tmp_path / "copy" / "records.jsonl").write_text(first.out, encoding="utf-8")
        assert main(["store", "import", str(tmp_path / "copy")]) == 0
        assert "imported 4 records" in capsys.readouterr().out
        assert main(["store", "export", str(tmp_path / "copy")]) == 0
        assert capsys.readouterr().out == first.out
        assert store_digest(ArtifactStore(tmp_path / "copy")) == store_digest(
            ArtifactStore(store)
        )


class TestOneEngine:
    """A ``"jsonl"`` backend, and a JSONL-only directory, fail in one line."""

    @pytest.fixture
    def legacy(self, tmp_path):
        root = tmp_path / "legacy"
        root.mkdir()
        (root / "records.jsonl").write_text(legacy_log(), encoding="utf-8")
        return root

    @pytest.mark.parametrize("opener", [ArtifactStore, open_store, Coordinator])
    def test_jsonl_only_directory_names_the_importer(self, legacy, opener):
        with pytest.raises(ValueError, match=r"'repro store import .*legacy'") as info:
            opener(legacy)
        assert "\n" not in str(info.value)
        assert not (legacy / "records.sqlite").exists()

    @pytest.mark.parametrize("action", [["campaign", "list"], ["campaign", "run"],
                                        ["store", "export"]])
    def test_cli_on_a_jsonl_only_directory_fails_in_one_line(self, legacy, capsys, action):
        argv = action + [str(legacy)] if action[0] == "store" else action + [
            "--store", str(legacy)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and f"'repro store import {legacy}'" in err

    @pytest.mark.parametrize(
        "opener",
        [
            lambda root, name: open_store(root, backend=name),
            lambda root, name: Coordinator(root, store_backend=name),
            lambda root, name: CampaignSpec(
                execution=ExecutionPolicy(store=str(root), store_backend=name)
            ).validate(),
        ],
        ids=["open_store", "Coordinator", "spec"],
    )
    @pytest.mark.parametrize("name", ["jsonl", "sqlte", "SQLite"])
    def test_only_sqlite_is_a_backend_name(self, tmp_path, opener, name):
        with pytest.raises(ValueError, match="store_backend must be null or 'sqlite'") as info:
            opener(tmp_path / "s", name)
        assert "\n" not in str(info.value)
        assert ("repro store import" in str(info.value)) == (name == "jsonl")
        for accepted in (None, "sqlite"):
            opener(tmp_path / "s", accepted)

    def test_cli_spec_with_a_jsonl_backend_fails_in_one_line(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"execution": {"store_backend": "jsonl"}}))
        assert main(["campaign", "run", "--spec", str(spec), "--store", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "repro store import" in err


# --------------------------------------------------------------------------- #
# Concurrency: threads and processes against one store.
# --------------------------------------------------------------------------- #


def _stress_scenario(i: int) -> Scenario:
    return Scenario(model=f"stress-{i % 4}", batch_size=i % 3 + 1, buffer_bytes=(i + 1) * 64 * KB)


def _stress_put(store: ArtifactStore, i: int, part: int) -> None:
    scenario = _stress_scenario(i)
    store.put(
        scenario,
        fake_result(scenario),
        fidelity=fake_fidelity(scenario) if part == 1 else None,
        measured=fake_measured(scenario) if part == 2 else None,
    )


def _process_stress_worker(root: str, indices, part: int) -> int:
    store = ArtifactStore(root)
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
        store = ArtifactStore(f"{root}/round-{round_index}")
        try:
            _stress_put(store, 0, 0)
        except BaseException:
            barrier.abort()  # release the others at once; this one fails
            raise
        finally:
            store.close()


def _oracle_digests(tmp_path, n: int) -> dict:
    oracle = ArtifactStore(tmp_path / "oracle")
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
        store = ArtifactStore(tmp_path / "shared")
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
        store = ArtifactStore(root)
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
            assert len(ArtifactStore(tmp_path / f"round-{round_index}")) == 1

    def test_killed_campaign_resumes_bit_identically(self, tmp_path):
        def spec(store_dir):
            return CampaignSpec(
                name="store-resume",
                axes=AxisGrid(
                    designs=("mokey", "tensor-cores"), buffer_bytes=(256 * KB, 512 * KB)
                ),
                execution=ExecutionPolicy(executor="serial", store=str(store_dir)),
            )

        fresh = run_spec(spec(tmp_path / "fresh"))
        assert fresh.simulated_count == 4

        events = iter_campaign(spec(tmp_path / "killed"))
        next(events)
        events.close()  # the kill: one record persisted, three missing
        killed = ArtifactStore(tmp_path / "killed")
        assert len(killed) == 1

        resumed = run_spec(spec(tmp_path / "killed"))
        assert resumed.simulated_count == 3
        assert sum(1 for r in resumed if r.cached) == 1
        assert store_digests(ArtifactStore(tmp_path / "killed")) == store_digests(
            ArtifactStore(tmp_path / "fresh")
        )


# --------------------------------------------------------------------------- #
# Pushdown at scale: the 10k-record acceptance test.
# --------------------------------------------------------------------------- #
class TestSqlitePushdownScale:
    GRID = 10_000

    @pytest.fixture(scope="class")
    def big_store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("bulk") / "big"
        store = ArtifactStore(root)
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
        real = store_module.Scenario

        class CountingScenario:
            @staticmethod
            def from_dict(data):
                calls["n"] += 1
                return real.from_dict(data)

        monkeypatch.setattr(store_module, "Scenario", CountingScenario)
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
