"""Tests for the accuracy-campaign subsystem (:mod:`repro.experiments.accuracy`).

Four guarantees the fidelity layer must give:

1. **Determinism** — same settings + scenario ⇒ bit-identical
   :class:`FidelityResult`, identical store digests, and serial/process
   executor equivalence (the accuracy extension of the store suite's
   executor property).
2. **Memoisation** — fidelity depends only on (model, task, scheme), so
   one quantization serves every seq/batch/buffer point of a grid and a
   second campaign over a shared store evaluates nothing.
3. **Round-trip** — fidelity results survive the store (including the
   upgrade of pre-accuracy hardware records) and ``to_dict``/``from_dict``.
4. **Fail-fast** — schemes without a numerics side raise
   :class:`UnsupportedSchemeError` before any simulation runs.
"""

import hashlib
import io
import json

import pytest

from repro.experiments import (
    ArtifactStore,
    AxisGrid,
    CampaignSpec,
    Enrichments,
    ExecutionPolicy,
    ResultCache,
    Scenario,
    ScenarioRecord,
    UnsupportedSchemeError,
    accuracy_key,
    accuracy_scheme_for,
    evaluate_fidelity,
    export_jsonl,
    fidelity_digest,
    run_spec,
    scenario_key,
    supported_accuracy_schemes,
    supports_accuracy,
)
from repro.experiments.accuracy import AccuracySettings, FidelityResult
from repro.schemes import SCHEMES, QuantizationScheme

KB = 1024

# Reduced (but structurally identical) evaluation for fast tests; the
# default settings are exercised by the accuracy goldens and bench_table1.
TINY = AccuracySettings(
    pool_samples=16,
    profile_samples=4,
    classification_sequence_length=12,
    qa_sequence_length=16,
    golden_samples=3000,
    golden_repeats=1,
)


@pytest.fixture()
def compute_only_scheme():
    """A registered scheme with no accuracy-side numerics, cleaned up after."""

    class ComputeOnlyScheme(QuantizationScheme):
        name = "compute-only-test"

        def layer_compute(self, workload, design):  # pragma: no cover - never run
            raise NotImplementedError

    SCHEMES.register("compute-only-test", ComputeOnlyScheme(), replace=True)
    yield "compute-only-test"
    SCHEMES._entries.pop("compute-only-test", None)


class TestAccuracyKey:
    def test_scheme_override_wins(self):
        scenario = Scenario(design="tensor-cores", scheme="q8bert")
        assert accuracy_scheme_for(scenario) == "q8bert"

    def test_design_datapath_is_the_fallback(self):
        assert accuracy_scheme_for(Scenario(design="mokey")) == "mokey"
        assert accuracy_scheme_for(Scenario(design="tensor-cores")) == "fp16"
        assert accuracy_scheme_for(Scenario(design="gobo")) == "gobo"
        assert accuracy_scheme_for(Scenario(design="tensor-cores+mokey-oc")) == "mokey-oc"

    def test_key_ignores_hardware_axes(self):
        base = Scenario(model="bert-base", task="mnli", design="mokey")
        for variant in (
            Scenario(model="bert-base", task="mnli", design="mokey", sequence_length=64),
            Scenario(model="bert-base", task="mnli", design="mokey", batch_size=8),
            Scenario(model="bert-base", task="mnli", design="mokey", buffer_bytes=256 * KB),
            Scenario(model="bert-base", task="mnli", design="tensor-cores+mokey-oc+on"),
        ):
            if variant.design == base.design:
                assert accuracy_key(variant) == accuracy_key(base)
        # ... but not the numerics scheme.
        assert accuracy_key(Scenario(design="gobo")) != accuracy_key(base)

    def test_every_builtin_scheme_supports_accuracy(self):
        for scheme in SCHEMES.names():
            assert supports_accuracy(scheme), scheme
        assert not supports_accuracy("not-a-scheme")
        assert "mokey" in supported_accuracy_schemes()


class TestFidelityResult:
    def test_round_trips(self):
        result = FidelityResult(
            scheme="mokey",
            metric="accuracy",
            fp_score=100.0,
            weight_only_score=95.0,
            weight_activation_score=92.5,
            weight_outlier_fraction=0.013,
            activation_outlier_fraction=0.02,
            compression_ratio=7.5,
            eval_samples=40,
            seed=123,
        )
        assert FidelityResult.from_dict(result.to_dict()) == result
        assert fidelity_digest(FidelityResult.from_dict(result.to_dict())) == fidelity_digest(
            result
        )

    def test_from_dict_ignores_unknown_fields(self):
        data = FidelityResult(scheme="gobo").to_dict()
        data["future_field"] = {"nested": True}
        assert FidelityResult.from_dict(data).scheme == "gobo"

    def test_error_properties(self):
        result = FidelityResult(fp_score=100.0, weight_only_score=97.0)
        assert result.weight_only_error == pytest.approx(3.0)
        assert result.weight_activation_error is None
        result.weight_activation_score = 95.5
        assert result.weight_activation_error == pytest.approx(4.5)

    def test_none_weight_activation_round_trips(self):
        result = FidelityResult(scheme="fp16", weight_activation_score=None)
        rebuilt = FidelityResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt.weight_activation_score is None


class TestEvaluateFidelity:
    def test_unsupported_scheme_raises(self, compute_only_scheme):
        with pytest.raises(UnsupportedSchemeError):
            evaluate_fidelity("bert-base", "mnli", compute_only_scheme, settings=TINY)

    def test_unknown_task_and_model_raise(self):
        with pytest.raises(ValueError):
            evaluate_fidelity("bert-base", "sqaud", "mokey", settings=TINY)
        with pytest.raises(ValueError):
            evaluate_fidelity("bert-tiny", "mnli", "mokey", settings=TINY)

    def test_fp16_is_the_trivial_baseline(self):
        result = evaluate_fidelity("bert-base", "mnli", "fp16", settings=TINY)
        assert result.fp_score == pytest.approx(100.0)
        assert result.weight_only_score == pytest.approx(100.0)
        assert result.weight_activation_score is None
        assert result.compression_ratio == pytest.approx(2.0)

    def test_mokey_quantizes_weights_and_activations(self):
        result = evaluate_fidelity("bert-base", "mnli", "mokey", settings=TINY)
        assert result.metric == "accuracy"
        assert result.weight_activation_score is not None
        assert 0.0 < result.weight_outlier_fraction < 0.1
        assert result.compression_ratio > 6.0
        assert result.eval_samples == TINY.pool_samples - TINY.profile_samples

    def test_weights_only_schemes_report_no_activation_score(self):
        gobo = evaluate_fidelity("bert-base", "mnli", "gobo", settings=TINY)
        assert gobo.weight_activation_score is None
        q8bert = evaluate_fidelity("bert-base", "mnli", "q8bert", settings=TINY)
        assert q8bert.weight_activation_score is not None

    def test_deterministic_across_calls(self):
        first = evaluate_fidelity("bert-large", "stsb", "mokey", settings=TINY)
        second = evaluate_fidelity("bert-large", "stsb", "mokey", settings=TINY)
        assert first.to_dict() == second.to_dict()
        assert fidelity_digest(first) == fidelity_digest(second)


def accuracy_grid(**axes) -> AxisGrid:
    """One (model, task, scheme) accuracy key spread over hardware axes."""
    defaults = dict(
        models=("bert-base",),
        tasks=("mnli",),
        sequence_lengths=(None, 64),
        batch_sizes=(1, 4),
        designs=("mokey",),
        buffer_bytes=(512 * KB,),
    )
    return AxisGrid(**{**defaults, **axes})


#: The first point of :func:`accuracy_grid` alone.
ONE_POINT = dict(sequence_lengths=(None,), batch_sizes=(1,))


def accuracy_spec(axes=None, accuracy=True, **execution) -> CampaignSpec:
    """An accuracy campaign (TINY settings) over ``axes``."""
    return CampaignSpec(
        axes=axes if axes is not None else accuracy_grid(),
        enrichments=Enrichments(accuracy=accuracy, accuracy_settings=TINY),
        execution=ExecutionPolicy(**execution),
    )


class TestAccuracyCampaign:
    def test_one_quantization_serves_many_points(self):
        campaign = run_spec(accuracy_spec())
        assert len(campaign) == 4
        assert campaign.fidelity_evaluated == 1
        digests = {fidelity_digest(record.fidelity) for record in campaign}
        assert len(digests) == 1

    def test_records_without_accuracy_have_no_fidelity(self):
        campaign = run_spec(accuracy_spec(accuracy_grid(**ONE_POINT), accuracy=False))
        assert campaign.fidelity_evaluated == 0
        assert all(record.fidelity is None for record in campaign)
        assert "fp_score" not in campaign.to_dicts()[0]

    def test_rows_gain_fidelity_columns(self):
        campaign = run_spec(accuracy_spec(accuracy_grid(**ONE_POINT)))
        row = campaign.to_dicts()[0]
        assert row["fp_score"] == pytest.approx(100.0)
        assert "weight_only_err" in row and "weight_outlier_pct" in row

    def test_unsupported_scheme_fails_before_simulating(self, compute_only_scheme):
        spec = accuracy_spec(AxisGrid(schemes=(compute_only_scheme,), designs=("mokey",)))
        cache = ResultCache()
        looked_up = []
        cache.lookup = looked_up.append  # records the lookup, then misses
        with pytest.raises(UnsupportedSchemeError):
            run_spec(spec, cache=cache)
        assert looked_up == [] and len(cache) == 0

    def test_unknown_task_fails_before_simulating(self):
        # The hardware side tolerates unknown tasks (they default the
        # sequence length), but the accuracy side cannot label a dataset
        # for them — the campaign must reject the grid up front.
        spec = accuracy_spec(AxisGrid(tasks=("not-a-task",), designs=("mokey",)))
        cache = ResultCache()
        looked_up = []
        cache.lookup = looked_up.append  # records the lookup, then misses
        with pytest.raises(ValueError):
            run_spec(spec, cache=cache)
        assert looked_up == [] and len(cache) == 0

    def test_scenario_record_round_trips_with_fidelity(self):
        campaign = run_spec(accuracy_spec(accuracy_grid(**ONE_POINT)))
        record = campaign.records[0]
        rebuilt = ScenarioRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert rebuilt.fidelity == record.fidelity
        assert rebuilt.scenario == record.scenario


class TestAccuracyStore:
    def test_fidelity_round_trips_through_store(self, tmp_path):
        campaign = run_spec(accuracy_spec(store=str(tmp_path / "store")))
        fresh = ArtifactStore(tmp_path / "store")
        for record in campaign:
            assert fresh.get_fidelity(record.scenario) == record.fidelity
        assert all(entry.fidelity is not None for entry in fresh.records())

    def test_second_campaign_simulates_and_evaluates_nothing(self, tmp_path):
        spec = accuracy_spec(store=str(tmp_path / "store"))
        run_spec(spec)
        again = run_spec(spec)
        assert again.simulated_count == 0
        assert again.fidelity_evaluated == 0
        assert all(record.fidelity is not None for record in again)

    def test_hardware_only_records_upgrade_in_place(self, tmp_path):
        store_root = tmp_path / "store"
        grid = accuracy_grid(sequence_lengths=(None,))
        first = run_spec(accuracy_spec(grid, accuracy=False, store=str(store_root)))
        assert all(record.fidelity is None for record in first)

        upgraded = run_spec(accuracy_spec(grid, store=str(store_root)))
        assert upgraded.simulated_count == 0  # hardware came from the store
        assert upgraded.fidelity_evaluated == 1
        fresh = ArtifactStore(store_root)
        for scenario in grid.scenarios():
            assert fresh.get_fidelity(scenario) is not None
            # The hardware result must be untouched by the upgrade.
            assert fresh.get(scenario) == first.result(
                model=scenario.model,
                sequence_length=scenario.sequence_length,
                batch_size=scenario.batch_size,
            )

    def test_upgrade_rewrites_the_record_in_place(self, tmp_path):
        store_root = tmp_path / "store"
        point = accuracy_grid(**ONE_POINT)
        later = accuracy_grid(sequence_lengths=(None,), batch_sizes=(4,))
        run_spec(accuracy_spec(point, accuracy=False, store=str(store_root)))
        run_spec(accuracy_spec(later, accuracy=False, store=str(store_root)))
        run_spec(accuracy_spec(point, store=str(store_root)))
        store = ArtifactStore(store_root)
        upgraded, untouched = point.scenarios()[0], later.scenarios()[0]
        # One record per key; the upgraded one keeps its first position.
        assert store.keys() == [scenario_key(upgraded), scenario_key(untouched)]
        assert store.get_fidelity(upgraded).scheme == "mokey"
        assert store.get_fidelity(untouched) is None

    def test_different_settings_never_serve_stale_fidelity(self, tmp_path):
        spec = accuracy_spec(accuracy_grid(**ONE_POINT), store=str(tmp_path / "store"))
        first = run_spec(spec)
        other_settings = AccuracySettings(
            pool_samples=TINY.pool_samples + 8,
            profile_samples=TINY.profile_samples,
            classification_sequence_length=TINY.classification_sequence_length,
            qa_sequence_length=TINY.qa_sequence_length,
            golden_samples=TINY.golden_samples,
            golden_repeats=TINY.golden_repeats,
        )
        second = run_spec(spec.with_enrichments(accuracy_settings=other_settings))
        # The store holds TINY's fidelity; a differently-parameterised run
        # must re-evaluate rather than silently serve it.
        assert second.fidelity_evaluated == 1
        first_f, second_f = first.records[0].fidelity, second.records[0].fidelity
        assert first_f.settings_digest != second_f.settings_digest
        assert second_f.eval_samples == (
            other_settings.pool_samples - other_settings.profile_samples
        )

    def test_same_seed_means_identical_store_digests(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            run_spec(accuracy_spec(executor="serial", store=str(tmp_path / name)))
            blob = io.StringIO()
            export_jsonl(ArtifactStore(tmp_path / name), blob)
            digests.append(hashlib.sha256(blob.getvalue().encode("utf-8")).hexdigest())
        assert digests[0] == digests[1]


class TestAccuracyExecutorEquivalence:
    def equivalence_grid(self):
        # Two accuracy keys so the process pool actually fans out.
        return AxisGrid(
            models=("bert-base", "bert-large"),
            tasks=("mnli",),
            designs=("mokey",),
            buffer_bytes=(256 * KB, 512 * KB),
        )

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_matches_serial_bit_for_bit(self, executor):
        serial = run_spec(accuracy_spec(self.equivalence_grid(), executor="serial"))
        parallel = run_spec(
            accuracy_spec(self.equivalence_grid(), executor=executor, max_workers=2)
        )
        assert len(parallel) == len(serial)
        for expected, measured in zip(serial, parallel):
            assert measured.scenario == expected.scenario
            assert measured.result == expected.result
            assert measured.fidelity == expected.fidelity
            assert json.dumps(measured.fidelity.to_dict(), sort_keys=True) == json.dumps(
                expected.fidelity.to_dict(), sort_keys=True
            )
