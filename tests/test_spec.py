"""Tests for the declarative campaign API (:mod:`repro.experiments.spec`).

Four guarantees the spec layer must give:

1. **Round-trip** — ``CampaignSpec.from_dict(spec.to_dict()) == spec``
   (property-tested over registry-sampled axes), through JSON text and
   files too.
2. **Validation** — unknown model/task/scheme/design names raise a
   :class:`~repro.registry.RegistryError` naming the registry and its
   nearest match, and malformed values raise a one-line ``ValueError``,
   before anything simulates.
3. **Streaming** — ``iter_campaign`` yields records in grid order with
   monotone progress, appends to the store *before* yielding, and a
   consumer that stops early (the kill case) simulates nothing past the
   last consumed scenario under the serial executor.
4. **Resume ≡ fresh** — an interrupted store, resumed, ends bit-identical
   (same keys, same record digests) to an uninterrupted run, with the
   persisted scenarios never re-simulated.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.experiments import (
    ArtifactStore,
    AxisGrid,
    CampaignSpec,
    Enrichments,
    ExecutionPolicy,
    ResultCache,
    iter_campaign,
    run_spec,
    scenario_key,
)
from repro.experiments.accuracy import AccuracySettings
from repro.experiments.measured import MeasurementSettings
from repro.registry import DESIGNS, MODELS, SCHEMES, TASKS, RegistryError

KB = 1024

TINY_ACCURACY = AccuracySettings(
    pool_samples=16,
    profile_samples=4,
    classification_sequence_length=12,
    qa_sequence_length=16,
    golden_samples=3000,
    golden_repeats=1,
)


def tiny_spec(**execution) -> CampaignSpec:
    """A 4-scenario serial spec (2 designs x 2 buffers) used across tests."""
    return CampaignSpec(
        name="tiny",
        axes=AxisGrid(
            designs=("mokey", "tensor-cores"),
            buffer_bytes=(256 * KB, 512 * KB),
        ),
        execution=ExecutionPolicy(executor="serial", **execution),
    )


def store_state(root) -> dict:
    """Store key → sha256 digest of the canonical record payload.

    The bit-identity currency of the resume tests: two stores are
    equivalent iff these mappings are equal (line order and upgrade
    history are allowed to differ; the loaded record per key is not).
    """
    state = {}
    for entry in ArtifactStore(root).records():
        payload = {
            "scenario": entry.scenario.to_dict(),
            "result": entry.result.to_dict(),
            "fidelity": None if entry.fidelity is None else entry.fidelity.to_dict(),
            "measured": None if entry.measured is None else entry.measured.to_dict(),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        state[scenario_key(entry.scenario)] = hashlib.sha256(blob.encode()).hexdigest()
    return state


# --------------------------------------------------------------------------- #
# Round-trip
# --------------------------------------------------------------------------- #
_axis_grids = st.builds(
    AxisGrid,
    models=st.lists(st.sampled_from(MODELS.names()), min_size=1, max_size=2).map(tuple),
    tasks=st.lists(st.sampled_from(TASKS.names()), min_size=1, max_size=2).map(tuple),
    sequence_lengths=st.lists(
        st.one_of(st.none(), st.integers(min_value=8, max_value=512)),
        min_size=1,
        max_size=2,
    ).map(tuple),
    batch_sizes=st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=2).map(
        tuple
    ),
    schemes=st.lists(
        st.one_of(st.none(), st.sampled_from(SCHEMES.names())), min_size=1, max_size=2
    ).map(tuple),
    designs=st.lists(st.sampled_from(DESIGNS.names()), min_size=1, max_size=2).map(tuple),
    buffer_bytes=st.lists(
        st.integers(min_value=1, max_value=64).map(lambda kb: kb * 64 * KB),
        min_size=1,
        max_size=2,
    ).map(tuple),
    workloads=st.one_of(
        st.none(),
        st.lists(
            st.tuples(
                st.sampled_from(MODELS.names()),
                st.sampled_from(TASKS.names()),
                st.one_of(st.none(), st.integers(min_value=8, max_value=512)),
            ),
            min_size=1,
            max_size=3,
        ).map(tuple),
    ),
)

_specs = st.builds(
    CampaignSpec,
    name=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="-_"),
        min_size=1,
        max_size=16,
    ),
    axes=_axis_grids,
    enrichments=st.builds(
        Enrichments,
        accuracy=st.booleans(),
        measured=st.booleans(),
        accuracy_settings=st.one_of(
            st.none(), st.builds(AccuracySettings, scale=st.integers(8, 32))
        ),
        measurement_settings=st.one_of(
            st.none(), st.builds(MeasurementSettings, golden_seed=st.integers(0, 99))
        ),
    ),
    execution=st.builds(
        ExecutionPolicy,
        executor=st.sampled_from(("serial", "thread", "process")),
        max_workers=st.one_of(st.none(), st.integers(1, 8)),
        chunksize=st.one_of(st.none(), st.integers(1, 8)),
        store=st.one_of(st.none(), st.just("./store-dir")),
        store_backend=st.sampled_from((None, "sqlite")),
        resume=st.booleans(),
    ),
)


class TestRoundTrip:
    @hyp_settings(max_examples=60, deadline=None)
    @given(spec=_specs)
    def test_dict_and_json_round_trip_to_equality(self, spec):
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        assert CampaignSpec.from_json(spec.to_json()) == spec
        # And through a real JSON encode/decode cycle (tuples become lists).
        assert CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @hyp_settings(max_examples=25, deadline=None)
    @given(spec=_specs)
    def test_round_trip_expands_the_same_scenarios(self, spec):
        assert CampaignSpec.from_json(spec.to_json()).scenarios() == spec.scenarios()

    def test_file_round_trip(self, tmp_path):
        spec = tiny_spec(store="some/dir")
        path = tmp_path / "spec.json"
        spec.save(path)
        assert CampaignSpec.load(path) == spec

    def test_unknown_fields_are_tolerated(self):
        data = tiny_spec().to_dict()
        data["future_field"] = {"x": 1}
        data["axes"]["future_axis"] = [1, 2]
        data["execution"]["future_knob"] = True
        assert CampaignSpec.from_dict(data) == tiny_spec()

    def test_lists_normalise_to_tuples(self):
        spec = CampaignSpec(axes=AxisGrid(models=["bert-base"], workloads=[["bert-base", "mnli", None]]))
        assert spec.axes.models == ("bert-base",)
        assert spec.axes.workloads == (("bert-base", "mnli", None),)
        assert hash(spec)  # frozen + tuples => hashable


# --------------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------------- #
class TestValidation:
    def test_validate_returns_self_on_a_good_spec(self):
        spec = tiny_spec()
        assert spec.validate() is spec

    @pytest.mark.parametrize(
        "axes, registry_kind, suggestion",
        [
            (dict(models=("bert-basee",)), "models", "bert-base"),
            (dict(tasks=("mnli2",)), "tasks", "mnli"),
            (dict(schemes=("mokeyy",)), "schemes", "mokey"),
            (dict(designs=("tensor-core",)), "designs", "tensor-cores"),
        ],
    )
    def test_unknown_names_name_registry_and_nearest_match(
        self, axes, registry_kind, suggestion
    ):
        spec = CampaignSpec(axes=AxisGrid(**axes))
        with pytest.raises(RegistryError) as excinfo:
            spec.validate()
        assert f"'{registry_kind}' registry" in str(excinfo.value)
        assert f"did you mean {suggestion!r}?" in str(excinfo.value)

    def test_workload_names_are_validated_too(self):
        spec = CampaignSpec(axes=AxisGrid(workloads=(("bert-base", "sqaud", 128),)))
        with pytest.raises(RegistryError, match="'tasks' registry"):
            spec.validate()

    def test_iter_campaign_validates_before_simulating(self, tmp_path):
        spec = CampaignSpec(
            axes=AxisGrid(designs=("mokeyy",)),
            execution=ExecutionPolicy(executor="serial", store=str(tmp_path / "s")),
        )
        with pytest.raises(RegistryError):
            iter_campaign(spec)
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "axes",
        [
            dict(batch_sizes=(0,)),
            dict(buffer_bytes=(-1,)),
            dict(sequence_lengths=(0,)),
            dict(workloads=(("bert-base", "mnli"),)),
        ],
    )
    def test_malformed_numeric_axes_are_rejected(self, axes):
        with pytest.raises(ValueError):
            CampaignSpec(axes=AxisGrid(**axes)).validate()

    def test_unknown_executor_is_rejected(self):
        spec = CampaignSpec(execution=ExecutionPolicy(executor="rayon"))
        with pytest.raises(ValueError, match="unknown executor"):
            spec.validate()

    @pytest.mark.parametrize(
        "section, changes, message",
        [
            pytest.param("execution", {"resume": "no"}, "resume must be true or false",
                         id="resume-string"),
            pytest.param("enrichments", {"accuracy": "no"}, "accuracy must be true or false",
                         id="accuracy-string"),
            pytest.param("execution", {"executor": "process", "max_workers": "2"},
                         "max_workers must be a positive integer", id="max-workers-string"),
            pytest.param("execution", {"max_workers": 0},
                         "max_workers must be a positive integer", id="max-workers-zero"),
            pytest.param("execution", {"chunksize": 0},
                         "chunksize must be a positive integer", id="chunksize-zero"),
            pytest.param("axes", {"designs": "mokey"}, "designs must be a list",
                         id="designs-string"),
            pytest.param("axes", {"models": 5}, "models must be a list", id="models-scalar"),
            pytest.param("axes", {"batch_sizes": [True]},
                         "batch_sizes must be positive integers", id="batch-size-bool"),
            pytest.param("axes", {"workloads": ["bert-base"]},
                         "a workload triple must be a list", id="workload-string"),
            pytest.param(None, "tiny", "a campaign spec must be an object", id="spec-string"),
            pytest.param(None, {"axes": ["mokey"]}, "'axes' must be an object",
                         id="axes-list"),
            pytest.param("execution", {"store": 3, "executor": "serial"},
                         "execution.store must be a path or null", id="store-int"),
            pytest.param("execution", {"store": ["store-dir"]},
                         "execution.store must be a path or null", id="store-list"),
            pytest.param("enrichments",
                         {"accuracy": True, "accuracy_settings": {"pool_samples": -1}},
                         "accuracy_settings.pool_samples must be an integer >= 1",
                         id="accuracy-pool-negative"),
            pytest.param("enrichments", {"accuracy_settings": {"scale": 0}},
                         "accuracy_settings.scale must be an integer >= 1",
                         id="accuracy-scale-zero"),
            pytest.param("enrichments", {"accuracy_settings": {"max_layers": True}},
                         "accuracy_settings.max_layers must be an integer",
                         id="accuracy-layers-bool"),
            pytest.param("enrichments", {"accuracy_settings": {"golden_samples": 1.5}},
                         "accuracy_settings.golden_samples must be an integer",
                         id="accuracy-golden-float"),
            pytest.param("enrichments", {"accuracy_settings": {"qa_sequence_length": "48"}},
                         "accuracy_settings.qa_sequence_length must be an integer",
                         id="accuracy-length-string"),
            pytest.param("enrichments", {"accuracy_settings": {"golden_seed": -1}},
                         "accuracy_settings.golden_seed must be an integer >= 0",
                         id="accuracy-seed-negative"),
            pytest.param("enrichments",
                         {"accuracy_settings": {"pool_samples": 8, "profile_samples": 8}},
                         "accuracy_settings.pool_samples must exceed profile_samples",
                         id="accuracy-pool-not-above-profile"),
            *(
                pytest.param("enrichments",
                             {"measured": True,
                              "measurement_settings": {"golden_seed": seed}},
                             "measurement_settings.golden_seed must be an integer >= 0",
                             id=f"measured-seed-{label}")
                for label, seed in (("negative", -1), ("bool", True),
                                    ("float", 1.5), ("string", "7"))
            ),
        ],
    )
    def test_malformed_spec_values_fail_in_one_line(self, section, changes, message):
        if section is None:
            data = changes
        else:
            data = tiny_spec().to_dict()
            data[section].update(changes)
        with pytest.raises(ValueError, match=message) as excinfo:
            spec = CampaignSpec.from_dict(json.loads(json.dumps(data)))
            # Saving must not launder a malformed value into a valid one.
            CampaignSpec.from_json(spec.to_json()).validate()
        assert "\n" not in str(excinfo.value)

    def test_store_accepts_a_path_and_a_zero_seed(self, tmp_path):
        spec = tiny_spec(store=tmp_path / "store").with_enrichments(
            accuracy_settings=AccuracySettings(golden_seed=0),
            measurement_settings=MeasurementSettings(golden_seed=0),
        )
        assert spec.validate() is spec
        saved = CampaignSpec.from_json(spec.to_json()).validate()
        assert saved.execution.store == str(tmp_path / "store")


# --------------------------------------------------------------------------- #
# Streaming
# --------------------------------------------------------------------------- #
class TestStreaming:
    def test_events_follow_grid_order_with_monotone_progress(self):
        spec = tiny_spec()
        scenarios = spec.scenarios()
        events = list(iter_campaign(spec))
        assert [record.scenario for record, _ in events] == scenarios
        for index, (record, progress) in enumerate(events):
            assert progress.completed == index + 1
            assert progress.total == len(scenarios)
            assert progress.store_key == scenario_key(record.scenario)
        assert events[-1][1].simulated == len(scenarios)
        assert events[-1][1].fraction == 1.0

    def test_streamed_records_equal_the_batch_path(self):
        streamed = [record for record, _ in iter_campaign(tiny_spec())]
        batch = run_spec(tiny_spec()).records
        assert [r.result for r in streamed] == [r.result for r in batch]
        assert [r.scenario for r in streamed] == [r.scenario for r in batch]

    def test_store_append_happens_before_yield(self, tmp_path):
        spec = tiny_spec(store=str(tmp_path / "s"))
        for record, progress in iter_campaign(spec):
            fresh = ArtifactStore(tmp_path / "s")
            assert fresh.get(record.scenario) is not None, (
                "record yielded before its store append"
            )

    def test_early_exit_simulates_nothing_further_serial(self, tmp_path):
        spec = tiny_spec(store=str(tmp_path / "s"))
        events = iter_campaign(spec)
        record, progress = next(events)
        events.close()
        assert progress.completed == 1
        assert len(ArtifactStore(tmp_path / "s")) == 1

    def test_in_run_duplicates_simulate_once(self):
        cache = ResultCache()
        spec = CampaignSpec(
            axes=AxisGrid(designs=("mokey",), buffer_bytes=(512 * KB,) * 3),
            execution=ExecutionPolicy(executor="serial"),
        )
        events = list(iter_campaign(spec, cache=cache))
        records = [record for record, _ in events]
        assert len(records) == 3
        assert len(cache) == 1
        assert len({id(record.result) for record in records}) == 1
        # Only the first occurrence was actually simulated; the repeats
        # count as cache reuse.
        assert [record.cached for record in records] == [False, True, True]
        assert (events[-1][1].simulated, events[-1][1].cached) == (1, 2)


# --------------------------------------------------------------------------- #
# Resume
# --------------------------------------------------------------------------- #
class TestResume:
    def test_resume_equals_fresh_bit_identical(self, tmp_path):
        fresh_spec = tiny_spec(store=str(tmp_path / "fresh"))
        fresh = run_spec(fresh_spec)
        assert fresh.simulated_count == 4

        # Interrupt a second campaign after one record (the kill case) ...
        killed_spec = tiny_spec(store=str(tmp_path / "killed"))
        events = iter_campaign(killed_spec)
        next(events)
        events.close()
        assert store_state(tmp_path / "killed") != store_state(tmp_path / "fresh")

        # ... and resume it: only the missing scenarios simulate, and the
        # final store is bit-identical to the uninterrupted one.
        resumed = run_spec(killed_spec)
        assert resumed.simulated_count == 3
        assert sum(1 for r in resumed if r.cached) == 1
        assert store_state(tmp_path / "killed") == store_state(tmp_path / "fresh")

        # The record sets agree too, in order.
        assert [r.result for r in resumed] == [r.result for r in fresh]

    def test_resume_with_enrichments_is_bit_identical(self, tmp_path):
        spec = CampaignSpec(
            name="tiny-accuracy",
            axes=AxisGrid(designs=("mokey",), buffer_bytes=(256 * KB, 512 * KB)),
            enrichments=Enrichments(accuracy=True, accuracy_settings=TINY_ACCURACY),
            execution=ExecutionPolicy(executor="serial", store=str(tmp_path / "fresh")),
        )
        fresh = run_spec(spec)
        assert fresh.fidelity_evaluated == 1

        killed_spec = spec.with_execution(store=str(tmp_path / "killed"))
        events = iter_campaign(killed_spec)
        next(events)
        events.close()
        resumed = run_spec(killed_spec)
        assert resumed.simulated_count == 1
        assert store_state(tmp_path / "killed") == store_state(tmp_path / "fresh")

    def test_resume_false_resimulates_but_still_persists(self, tmp_path):
        store_dir = str(tmp_path / "s")
        first = run_spec(tiny_spec(store=store_dir))
        assert first.simulated_count == 4
        before = store_state(tmp_path / "s")

        refresh = run_spec(tiny_spec(store=store_dir, resume=False))
        assert refresh.simulated_count == 4  # store kept out of the lookup path
        assert store_state(tmp_path / "s") == before  # deterministic => unchanged
        assert len(ArtifactStore(store_dir)) == 4

    def test_resume_false_on_an_empty_dir_still_persists(self, tmp_path):
        store_dir = str(tmp_path / "s")
        run_spec(tiny_spec(store=store_dir, resume=False))
        assert len(ArtifactStore(store_dir)) == 4


class TestSpecDerivation:
    def test_with_execution_and_with_enrichments(self):
        spec = tiny_spec()
        faster = spec.with_execution(executor="process", max_workers=2)
        assert faster.execution.executor == "process"
        assert faster.axes == spec.axes
        enriched = spec.with_enrichments(accuracy=True)
        assert enriched.enrichments.accuracy is True
        assert spec.enrichments.accuracy is False  # original untouched
