"""Tests for the on-disk artifact store and the campaign executors.

Three property families the persistence layer must guarantee:

1. **Round-trip identity** — ``Scenario → hash → store → record`` is
   lossless: a result read back from disk (by a fresh store instance,
   as another process would) equals the simulated one bit-for-bit.
2. **Cache-hit monotonicity** — across any sequence of campaigns sharing
   one store, each distinct scenario is simulated exactly once, ever.
3. **Executor equivalence** — the thread and process executors produce
   records equal to the serial executor on the same grid, in the same
   order (checked on the fig10 grid per the paper's evaluation).
"""

import io
import itertools
import json
import runpy
import sqlite3
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.accelerator.metrics import AreaBreakdown, EnergyBreakdown, SimulationResult
from repro.experiments import (
    ArtifactStore,
    AxisGrid,
    CampaignSpec,
    ExecutionPolicy,
    ResultCache,
    Scenario,
    ScenarioRecord,
    export_jsonl,
    import_jsonl,
    run_scenario,
    run_spec,
    scenario_key,
)
from repro.experiments.store import SCHEMA_VERSION
from repro.registry import DESIGNS, SCHEMES
from repro.transformer.model_zoo import PAPER_MODELS

KB = 1024
MB = 1024 * 1024

_CASES = itertools.count()

scenarios_st = st.builds(
    Scenario,
    model=st.sampled_from(["bert-base", "bert-large", "roberta-large", "deberta-xl"]),
    task=st.sampled_from(["mnli", "stsb", "squad"]),
    sequence_length=st.sampled_from([None, 64, 128, 384]),
    batch_size=st.integers(min_value=1, max_value=4),
    scheme=st.sampled_from((None,) + SCHEMES.names()),
    design=st.sampled_from(DESIGNS.names()),
    buffer_bytes=st.sampled_from([256 * KB, 512 * KB, 1 * MB, 4 * MB]),
)


class TestScenarioKey:
    def test_stable_and_distinct(self):
        a = Scenario(model="bert-base")
        b = Scenario(model="bert-base")
        c = Scenario(model="bert-large")
        assert scenario_key(a) == scenario_key(b)
        assert scenario_key(a) != scenario_key(c)

    def test_schema_version_changes_key(self):
        scenario = Scenario()
        assert scenario_key(scenario) != scenario_key(scenario, schema_version=SCHEMA_VERSION + 1)

    @given(scenario=scenarios_st)
    @settings(max_examples=50, deadline=None)
    def test_key_is_deterministic_function_of_fields(self, scenario):
        assert scenario_key(scenario) == scenario_key(Scenario.from_dict(scenario.to_dict()))


class TestSerializationRoundTrip:
    @given(scenario=scenarios_st)
    @settings(max_examples=50, deadline=None)
    def test_scenario_round_trips(self, scenario):
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_scenario_from_dict_ignores_unknown_fields(self):
        data = Scenario(model="bert-large").to_dict()
        data["added_in_schema_9"] = "whatever"
        assert Scenario.from_dict(data) == Scenario(model="bert-large")

    def test_simulation_result_round_trips(self):
        result = run_scenario(Scenario())
        rebuilt = SimulationResult.from_dict(result.to_dict())
        assert rebuilt == result
        # JSON canonical forms agree too (what the store actually writes).
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        )

    def test_simulation_result_tolerates_unknown_fields(self):
        data = run_scenario(Scenario()).to_dict()
        data["new_top_level_metric"] = 1.0
        data["energy"]["new_component"] = 2.0
        data["area"]["new_component"] = 3.0
        rebuilt = SimulationResult.from_dict(data)
        assert rebuilt.energy == EnergyBreakdown.from_dict(data["energy"])
        assert rebuilt.area == AreaBreakdown.from_dict(data["area"])

    def test_scenario_record_round_trips(self):
        scenario = Scenario(design="gobo")
        record = ScenarioRecord(scenario=scenario, result=run_scenario(scenario), cached=True)
        rebuilt = ScenarioRecord.from_dict(record.to_dict())
        assert rebuilt.scenario == record.scenario
        assert rebuilt.result == record.result
        assert rebuilt.cached is True

    def test_scenario_record_from_dict_ignores_unknown_fields(self):
        scenario = Scenario()
        record = ScenarioRecord(scenario=scenario, result=run_scenario(scenario))
        data = record.to_dict()
        data["annotations"] = {"reviewer": "future schema"}
        rebuilt = ScenarioRecord.from_dict(data)
        assert rebuilt.scenario == scenario


def _insert_raw(store, key, schema_version, scenario_text, result_text):
    """Write one row behind the store's back, as a garbling writer would."""
    conn = sqlite3.connect(str(store.path))
    with conn:
        conn.execute(
            "INSERT INTO records (key, schema_version, scenario, result) VALUES (?, ?, ?, ?)",
            (key, schema_version, scenario_text, result_text),
        )
    conn.close()


class TestArtifactStore:
    def test_put_get_round_trip_across_instances(self, tmp_path):
        scenario = Scenario(design="mokey", buffer_bytes=256 * KB)
        result = run_scenario(scenario)
        store = ArtifactStore(tmp_path / "store")
        assert store.get(scenario) is None
        assert store.put(scenario, result) is True
        assert store.put(scenario, result) is False  # content-addressed: no dup
        # A fresh instance (≈ another process) reads the identical result.
        reloaded = ArtifactStore(tmp_path / "store").get(scenario)
        assert reloaded == result
        assert scenario in ArtifactStore(tmp_path / "store")

    @given(scenario=scenarios_st)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_scenario_round_trips_through_disk(self, tmp_path, scenario):
        result = run_scenario(scenario)
        root = tmp_path / scenario_key(scenario)
        ArtifactStore(root).put(scenario, result)
        assert ArtifactStore(root).get(scenario) == result

    def test_unreadable_rows_are_skipped_not_fatal(self, tmp_path):
        scenario = Scenario()
        store = ArtifactStore(tmp_path)
        store.put(scenario, run_scenario(scenario))
        _insert_raw(store, "not-json", SCHEMA_VERSION, "not json at all", "not json at all")
        _insert_raw(store, "future", SCHEMA_VERSION + 7, "{}", "{}")
        _insert_raw(store, "bad-result", SCHEMA_VERSION, json.dumps(scenario.to_dict()), "{")
        reopened = ArtifactStore(tmp_path)
        # Counted right before any read has rebuilt a payload.
        assert len(reopened) == 1
        assert reopened.skipped == 3
        assert reopened.get(scenario) is not None
        assert [e.scenario for e in reopened.records()] == [scenario]
        assert len(list(reopened.query([("total_cycles", ">", 0.0)]))) == 1
        assert [row["count"] for row in reopened.query(group_by="model")] == [1]

    def test_records_with_extra_fields_still_load(self, tmp_path):
        scenario = Scenario()
        store = ArtifactStore(tmp_path / "a")
        store.put(scenario, run_scenario(scenario))
        out = io.StringIO()
        export_jsonl(store, out)
        record = json.loads(out.getvalue())
        record["scenario"]["future_axis"] = 42
        record["result"]["future_metric"] = 1.5
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "records.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert import_jsonl(tmp_path / "b") == (1, 0)
        assert ArtifactStore(tmp_path / "b").get(scenario) is not None

    def test_clear_removes_everything(self, tmp_path):
        store = ArtifactStore(tmp_path)
        scenario = Scenario()
        store.put(scenario, run_scenario(scenario))
        assert store.clear() == 1
        assert len(store) == 0
        assert store.path.exists()  # the directory still opens as a store
        assert store.get(scenario) is None

    def test_clear_then_external_writes_report_fresh_state(self, tmp_path):
        """Bug lock: clear() must not pin an empty view of the store.

        Records another process writes after the clear are visible to
        this instance at once.
        """
        store = ArtifactStore(tmp_path)
        scenario = Scenario()
        store.put(scenario, run_scenario(scenario))
        # A row that is valid JSON but does not rebuild: only a read finds
        # it, and this instance remembers it as skipped.
        _insert_raw(store, "bad-before", SCHEMA_VERSION, "{}", "{}")
        assert len(list(store.records())) == 1
        assert store.skipped == 1
        store.clear()
        # Another process writes a record (and a bad row) after the clear.
        ArtifactStore(tmp_path).put(scenario, run_scenario(scenario))
        _insert_raw(store, "bad-after", SCHEMA_VERSION, "not json", "not json")
        assert len(store) == 1
        assert store.skipped == 1
        assert store.get(scenario) is not None

    @pytest.mark.parametrize("payload", ["not json", "{}"])
    def test_put_replaces_an_unreadable_row_under_its_key(self, tmp_path, payload):
        spec = CampaignSpec(axes=AxisGrid(designs=("mokey", "tensor-cores")))
        scenarios = spec.scenarios()
        store = ArtifactStore(tmp_path)
        store.put(scenarios[-1], run_scenario(scenarios[-1]))
        _insert_raw(store, scenario_key(scenarios[0]), SCHEMA_VERSION, payload, payload)
        first = run_spec(spec, cache=ResultCache(store=ArtifactStore(tmp_path)))
        assert first.simulated_count == len(scenarios) - 1
        reopened = ArtifactStore(tmp_path)
        assert len(reopened) == len(scenarios)
        assert reopened.skipped == 0
        second = run_spec(spec, cache=ResultCache(store=reopened))
        assert second.simulated_count == 0
        assert reopened.get(scenarios[0]) == first.records[0].result

    def test_records_streams_lazily(self, tmp_path):
        """records() must be a generator reading rows as it goes, not a full copy."""
        import types

        store = ArtifactStore(tmp_path)
        scenarios = [Scenario(buffer_bytes=(i + 1) * 64 * KB) for i in range(4)]
        for scenario in scenarios:
            store.put(scenario, run_scenario(scenario))
        stream = store.records()
        assert isinstance(stream, types.GeneratorType)
        first = next(stream)
        assert first.scenario == scenarios[0]
        # Interleaved writes while a consumer holds the generator are safe
        # (the scan ends at the last row present when it began; later puts
        # don't appear).
        late = Scenario(buffer_bytes=9 * 64 * KB)
        store.put(late, run_scenario(late))
        rest = [entry.scenario for entry in stream]
        assert rest == scenarios[1:]

    def test_records_generator_survives_concurrent_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        scenarios = [Scenario(buffer_bytes=(i + 1) * 64 * KB) for i in range(3)]
        for scenario in scenarios:
            store.put(scenario, run_scenario(scenario))
        stream = store.records()
        next(stream)
        store.clear()
        assert list(stream) == []  # ends cleanly instead of yielding stale entries


def _sub_axis(values):
    """Any selection of ``values``, in any order, repeats allowed."""
    return st.lists(st.sampled_from(values), max_size=3).map(tuple)


#: Sub-grids of the 8-point pool bert-{base,large} x {mokey, tensor-cores}
#: x {256 KB, 1 MB}, possibly empty or with repeated grid points.
_pool_sub_grids = st.builds(
    AxisGrid,
    models=_sub_axis(("bert-base", "bert-large")),
    designs=_sub_axis(("mokey", "tensor-cores")),
    buffer_bytes=_sub_axis((256 * KB, 1 * MB)),
)


class TestStoreBackedCache:
    def test_store_hits_resolve_without_simulation(self, tmp_path):
        spec = CampaignSpec(
            axes=AxisGrid(designs=("mokey", "tensor-cores"), buffer_bytes=(256 * KB, 1 * MB))
        )
        points = len(spec.scenarios())
        first = run_spec(spec, cache=ResultCache(store=ArtifactStore(tmp_path)))
        assert first.simulated_count == points

        # Fresh cache + fresh store instance: everything comes from disk.
        cache = ResultCache(store=ArtifactStore(tmp_path))
        second = run_spec(spec, cache=cache)
        assert second.simulated_count == 0
        assert len(cache) == points  # each disk hit is memoised in memory
        assert all(record.cached for record in second)
        for a, b in zip(first, second):
            assert a.result == b.result

    def test_clear_keeps_backing_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cache = ResultCache(store=store)
        run_spec(CampaignSpec(), cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert len(store) == 1  # disk state is managed separately

    @given(grids=st.lists(_pool_sub_grids, max_size=6))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_cache_hit_monotonicity(self, tmp_path, grids):
        """Across any campaign sequence, each scenario simulates at most once."""
        # tmp_path is shared across hypothesis examples; each example needs
        # a virgin store or earlier examples' records leak in as hits.
        cache = ResultCache(store=ArtifactStore(tmp_path / f"case-{next(_CASES)}"))
        ever_seen = set()
        total_simulated = 0
        for grid in grids:
            scenarios = grid.scenarios()
            campaign = run_spec(CampaignSpec(axes=grid), cache=cache)
            total_simulated += campaign.simulated_count
            newly_seen = {s for s in scenarios if s not in ever_seen}
            assert campaign.simulated_count == len(newly_seen)
            # A scenario seen by an earlier campaign is always a cache hit.
            for record in campaign:
                assert record.cached or record.scenario not in ever_seen
            ever_seen |= newly_seen
        assert total_simulated == len(ever_seen)

    def test_accelerator_example_resumes_from_its_store(self, tmp_path, capsys):
        """``examples/accelerator_simulation.py`` with a ``store_dir``: the
        first run simulates every point, a second one serves them from disk."""
        example = Path(__file__).resolve().parents[1] / "examples" / "accelerator_simulation.py"
        main = runpy.run_path(str(example))["main"]
        store = str(tmp_path / "store")
        main("bert-base", "squad", store)
        assert f"store {store}: 15 simulated, 0 served from disk" in capsys.readouterr().out
        main("bert-base", "squad", store)
        assert f"store {store}: 0 simulated, 15 served from disk" in capsys.readouterr().out


PAPER_WORKLOADS = tuple((m, t, s) for (m, t, s, _head) in PAPER_MODELS)


def fig10_spec(workloads=PAPER_WORKLOADS, **execution) -> CampaignSpec:
    """The fig10 evaluation grid: Table I workloads × (TC, Mokey) × buffer sweep."""
    return CampaignSpec(
        axes=AxisGrid(
            workloads=workloads,
            designs=("tensor-cores", "mokey"),
            buffer_bytes=(256 * KB, 512 * KB, 1 * MB, 2 * MB, 4 * MB),
        ),
        execution=ExecutionPolicy(**execution),
    )


class TestExecutorEquivalence:
    @pytest.fixture(scope="class")
    def serial_records(self):
        return list(run_spec(fig10_spec(executor="serial")))

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_matches_serial_bit_for_bit(self, serial_records, executor):
        parallel = list(run_spec(fig10_spec(executor=executor, max_workers=4)))
        assert len(parallel) == len(serial_records) == 80
        for expected, measured in zip(serial_records, parallel):
            assert measured.scenario == expected.scenario  # same deterministic order
            assert measured.result == expected.result
            assert json.dumps(measured.result.to_dict(), sort_keys=True) == json.dumps(
                expected.result.to_dict(), sort_keys=True
            )

    def test_process_executor_chunked_dispatch(self):
        # The first Table I workload: 2 designs x 5 buffers = 10 scenarios.
        first = PAPER_WORKLOADS[:1]
        chunked = run_spec(fig10_spec(first, executor="process", max_workers=2, chunksize=3))
        serial = run_spec(fig10_spec(first, executor="serial"))
        assert len(chunked) == len(serial) == 10
        for a, b in zip(chunked, serial):
            assert a.result == b.result

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            run_spec(CampaignSpec(execution=ExecutionPolicy(executor="rayon")))
