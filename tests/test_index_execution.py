"""Tests for the index-domain execution mode and the measured-stats join.

Covers the three layers the measured pipeline spans:

1. :mod:`repro.transformer.index_execution` — an encoder-block forward
   (one layer of :class:`IndexDomainModelExecutor`) whose every GEMM runs
   through the index-domain engine, with measured operation counts
   matching the analytic workload GEMM set exactly;
2. :mod:`repro.experiments.measured` — the deterministic, serializable
   :class:`MeasuredStats` and its memo key;
3. the campaign/store/CLI join — ``Enrichments(measured=True)`` specs,
   record upgrades, and ``repro campaign run --with-measured-stats``.

Campaign-level tests register a scaled-down ``nano`` model in the zoo so
a measured layer execution costs milliseconds; the realistic full-width
path (BERT-Base at seq 128 in seconds) is exercised by
``benchmarks/bench_perf_index_engine.py``.
"""

import json

import numpy as np
import pytest

from repro.accelerator.mokey_accel import mokey_design
from repro.accelerator.simulator import AcceleratorSimulator
from repro.accelerator.workloads import encoder_gemms, model_workload
from repro.experiments import (
    ArtifactStore,
    AxisGrid,
    CampaignSpec,
    Enrichments,
    ExecutionPolicy,
    MeasuredStats,
    MeasurementSettings,
    Scenario,
    ScenarioRecord,
    evaluate_measured,
    measured_digest,
    measured_key,
    run_spec,
)
from repro.transformer.config import TransformerConfig
from repro.transformer.index_execution import IndexDomainEncoderExecutor
from repro.transformer.index_model import execute_model

KB = 1024

# Fast Golden-Dictionary build for tests (structurally identical).
TINY_SETTINGS = MeasurementSettings(golden_samples=3000, golden_repeats=1)

NANO_MODEL = "bert-nano-test"
NANO_CONFIG = TransformerConfig(
    name=NANO_MODEL,
    num_layers=2,
    hidden_size=32,
    num_heads=4,
    intermediate_size=64,
    vocab_size=128,
    max_position_embeddings=64,
)


@pytest.fixture()
def nano_model(monkeypatch):
    """Temporarily register a scaled-down model in the zoo."""
    from repro.transformer.model_zoo import MODEL_CONFIGS

    monkeypatch.setitem(MODEL_CONFIGS, NANO_MODEL, NANO_CONFIG)
    return NANO_MODEL


def execute_layer(model, **options):
    """One encoder layer through the model executor's front door."""
    (layer,) = execute_model(model, num_layers=1, **options).layers
    return layer


class TestOneLayerExecution:
    def test_measured_pairs_equal_analytic_layer_macs(self, quantizer):
        measurement = execute_layer(
            NANO_CONFIG, sequence_length=12, batch_size=2, quantizer=quantizer, seed=3
        )
        gemms = encoder_gemms(NANO_CONFIG, 12, 2)
        assert measurement.stats.total_pairs == sum(g.macs for g in gemms)
        assert [g.name for g in measurement.gemms] == [g.name for g in gemms]
        # Instance counts: heads x batch for the activation-activation GEMMs.
        by_name = {g.name: g for g in measurement.gemms}
        assert by_name["attention.scores"].count == NANO_CONFIG.num_heads * 2
        assert by_name["attention.query"].count == 1

    def test_scalar_and_vectorized_executors_agree(self, quantizer):
        vectorized = execute_layer(
            NANO_CONFIG, sequence_length=8, quantizer=quantizer, seed=5
        )
        scalar = execute_layer(
            NANO_CONFIG, sequence_length=8, quantizer=quantizer, seed=5, engine="scalar"
        )
        assert scalar.stats == vectorized.stats
        assert scalar.output_rms_error == pytest.approx(
            vectorized.output_rms_error, rel=1e-6, abs=1e-9
        )

    def test_deterministic_in_seed(self, quantizer):
        first = execute_layer(
            NANO_CONFIG, sequence_length=10, quantizer=quantizer, seed=11
        )
        second = execute_layer(
            NANO_CONFIG, sequence_length=10, quantizer=quantizer, seed=11
        )
        assert first.stats == second.stats
        assert first.output_rms_error == second.output_rms_error
        different = execute_layer(
            NANO_CONFIG, sequence_length=10, quantizer=quantizer, seed=12
        )
        assert different.stats != first.stats

    def test_output_tracks_fp_forward(self, quantizer):
        measurement = execute_layer(
            NANO_CONFIG, sequence_length=16, quantizer=quantizer, seed=7
        )
        assert 0.0 < measurement.output_rms_error < 0.5
        assert measurement.outlier_pair_fraction < 0.2
        assert measurement.engine_seconds > 0.0
        assert measurement.quantize_seconds > 0.0

    def test_disentangled_config_adds_relative_gemms(self, quantizer):
        config = TransformerConfig(
            name="deberta-nano",
            num_layers=1,
            hidden_size=32,
            num_heads=4,
            intermediate_size=64,
            vocab_size=128,
            disentangled_attention=True,
        )
        measurement = execute_layer(
            config, sequence_length=8, quantizer=quantizer, seed=1
        )
        names = [g.name for g in measurement.gemms]
        assert "attention.relative_query" in names
        assert "attention.relative_key" in names
        assert measurement.stats.total_pairs == sum(
            g.macs for g in encoder_gemms(config, 8, 1)
        )

    def test_rejects_bad_arguments(self, quantizer):
        with pytest.raises(ValueError):
            IndexDomainEncoderExecutor(quantizer=quantizer, engine="gpu")
        with pytest.raises(ValueError):
            execute_layer(NANO_CONFIG, sequence_length=0, quantizer=quantizer)
        with pytest.raises(ValueError):
            execute_layer(
                NANO_CONFIG, sequence_length=8, batch_size=0, quantizer=quantizer
            )
        with pytest.raises(KeyError):
            execute_layer("bert-nonexistent", quantizer=quantizer)

    def test_gemms_carry_counts_and_the_layer_carries_time(self, quantizer):
        measurement = execute_layer(NANO_CONFIG, sequence_length=8, quantizer=quantizer)
        for gemm in measurement.gemms:
            assert set(vars(gemm)) == {"name", "m", "k", "n", "count", "stats"}
        assert 0.0 < measurement.quantize_seconds + measurement.engine_seconds
        assert measurement.quantize_seconds + measurement.engine_seconds <= (
            measurement.total_seconds
        )


class TestMeasuredStats:
    def test_evaluate_measured_is_deterministic(self, nano_model):
        first = evaluate_measured(nano_model, 8, 1, settings=TINY_SETTINGS)
        second = evaluate_measured(nano_model, 8, 1, settings=TINY_SETTINGS)
        assert first == second
        assert measured_digest(first) == measured_digest(second)
        assert first.settings_digest == TINY_SETTINGS.digest()
        assert first.total_pairs == sum(g.macs for g in encoder_gemms(NANO_CONFIG, 8, 1))

    def test_round_trips_and_ignores_unknown_fields(self, nano_model):
        measured = evaluate_measured(nano_model, 8, 1, settings=TINY_SETTINGS)
        data = json.loads(json.dumps(measured.to_dict()))
        assert MeasuredStats.from_dict(data) == measured
        data["future_field"] = [1, 2, 3]
        assert MeasuredStats.from_dict(data) == measured

    def test_measured_key_ignores_hardware_axes(self):
        base = Scenario(model="bert-base", task="mnli", design="mokey")
        assert measured_key(base) == ("bert-base", 128, 1)
        for variant in (
            Scenario(model="bert-base", task="mnli", design="tensor-cores"),
            Scenario(model="bert-base", task="mnli", scheme="q8bert", design="mokey"),
            Scenario(model="bert-base", task="mnli", buffer_bytes=256 * KB),
        ):
            assert measured_key(variant) == measured_key(base)
        # ... but not the workload shape axes.
        assert measured_key(Scenario(model="bert-base", sequence_length=64)) != measured_key(base)
        assert measured_key(Scenario(model="bert-base", batch_size=4)) != measured_key(base)

    def test_different_settings_have_different_digests(self):
        assert TINY_SETTINGS.digest() != MeasurementSettings().digest()

    @pytest.mark.parametrize(
        "scope, digest", [("layer", "db2f52ab693efe8f"), ("model", "d390b5f8a6e653a3")]
    )
    def test_measured_digests_are_pinned(self, nano_model, scope, digest):
        # Stored measured stats are keyed by these digests: any change to
        # the executor, the inputs it is fed or the fold moves them.
        settings = MeasurementSettings(golden_samples=3000, golden_repeats=1, scope=scope)
        measured = evaluate_measured(nano_model, 8, 1, settings=settings)
        assert measured_digest(measured) == digest

    @pytest.mark.parametrize(
        "field, value",
        [
            ("scope", "layers"),
            ("scope", 3),
            ("golden_samples", -5),
            ("golden_samples", 0),
            ("golden_samples", 2.5),
            ("golden_repeats", 0),
            ("golden_repeats", True),
        ],
    )
    def test_bad_settings_fail_when_the_spec_is_parsed(self, field, value):
        data = {"name": "x", "enrichments": {
            "measured": True, "measurement_settings": {field: value}}}
        with pytest.raises(ValueError, match=field) as raised:
            CampaignSpec.from_dict(data).validate()
        assert "\n" not in str(raised.value)
        with pytest.raises(ValueError, match=field):
            MeasurementSettings(**{field: value})


def nano_grid(model, **axes) -> AxisGrid:
    defaults = dict(
        models=(model,),
        sequence_lengths=(8,),
        designs=("mokey", "tensor-cores"),
        buffer_bytes=(256 * KB, 512 * KB),
    )
    return AxisGrid(**{**defaults, **axes})


#: The first point of :func:`nano_grid` alone.
ONE_POINT = dict(designs=("mokey",), buffer_bytes=(256 * KB,))


def measured_spec(axes, measured=True, **execution) -> CampaignSpec:
    """A measured campaign (TINY settings) over ``axes``."""
    return CampaignSpec(
        axes=axes,
        enrichments=Enrichments(measured=measured, measurement_settings=TINY_SETTINGS),
        execution=ExecutionPolicy(**execution),
    )


class TestMeasuredCampaign:
    def test_one_measurement_serves_many_points(self, nano_model):
        campaign = run_spec(measured_spec(nano_grid(nano_model)))
        assert len(campaign) == 4
        assert campaign.measured_evaluated == 1
        digests = {measured_digest(record.measured) for record in campaign}
        assert len(digests) == 1

    def test_rows_gain_measured_columns(self, nano_model):
        one_point = nano_grid(nano_model, **ONE_POINT)
        campaign = run_spec(measured_spec(one_point))
        row = campaign.to_dicts()[0]
        assert row["measured_gaussian_pairs"] > 0
        assert row["measured_outlier_pairs"] >= 0
        assert 0.0 <= row["measured_outlier_pct"] < 20.0
        # Hardware-only campaigns keep their column set.
        bare = run_spec(measured_spec(one_point, measured=False))
        assert "measured_gaussian_pairs" not in bare.to_dicts()[0]
        assert bare.records[0].measured is None

    def test_record_round_trips_with_measured(self, nano_model):
        campaign = run_spec(measured_spec(nano_grid(nano_model, **ONE_POINT)))
        record = campaign.records[0]
        rebuilt = ScenarioRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert rebuilt.measured == record.measured
        assert rebuilt.scenario == record.scenario

    def test_store_round_trip_and_no_reevaluation(self, nano_model, tmp_path):
        spec = measured_spec(nano_grid(nano_model), store=str(tmp_path / "store"))
        first = run_spec(spec)
        again = run_spec(spec)
        assert again.simulated_count == 0
        assert again.measured_evaluated == 0
        for expected, rerun in zip(first, again):
            assert rerun.measured == expected.measured

    def test_hardware_only_records_upgrade_in_place(self, nano_model, tmp_path):
        grid = nano_grid(nano_model, designs=("mokey",))
        store = str(tmp_path / "store")
        bare = run_spec(measured_spec(grid, measured=False, store=store))
        assert all(record.measured is None for record in bare)
        upgraded = run_spec(measured_spec(grid, store=store))
        assert upgraded.simulated_count == 0
        assert upgraded.measured_evaluated == 1
        fresh = ArtifactStore(store)
        for scenario in grid.scenarios():
            assert fresh.get_measured(scenario) is not None
            # The hardware result is untouched by the upgrade.
            assert fresh.get(scenario) == bare.result(
                design=scenario.design, buffer_bytes=scenario.buffer_bytes
            )

    def test_upgrade_preserves_fidelity(self, nano_model, tmp_path):
        """A measured upgrade must not drop a previously joined part."""
        from repro.experiments import AccuracySettings

        accuracy_tiny = AccuracySettings(
            pool_samples=16,
            profile_samples=4,
            classification_sequence_length=12,
            qa_sequence_length=16,
            golden_samples=3000,
            golden_repeats=1,
        )
        store_root = tmp_path / "store"
        spec = measured_spec(
            nano_grid(nano_model, **ONE_POINT), measured=False, store=str(store_root)
        )
        run_spec(spec.with_enrichments(accuracy=True, accuracy_settings=accuracy_tiny))
        run_spec(spec.with_enrichments(measured=True))
        entry = list(ArtifactStore(store_root).records())[0]
        assert entry.fidelity is not None
        assert entry.measured is not None

    def test_executor_equivalence(self, nano_model):
        grid = nano_grid(nano_model)
        serial = run_spec(measured_spec(grid, executor="serial"))
        threaded = run_spec(measured_spec(grid, executor="thread", max_workers=2))
        for expected, measured in zip(serial, threaded):
            assert measured.measured == expected.measured

    def test_process_executor_matches_serial(self, nano_model):
        # Two measured keys so the process pool actually fans out; pool
        # workers bypass the in-process memo, so this locks cross-process
        # determinism of the measurement itself.
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("nano model registration does not survive spawn-based pools")
        grid = nano_grid(nano_model, sequence_lengths=(8, 12), **ONE_POINT)
        serial = run_spec(measured_spec(grid, executor="serial"))
        pooled = run_spec(measured_spec(grid, executor="process", max_workers=2))
        assert pooled.measured_evaluated == 2
        for expected, measured in zip(serial, pooled):
            assert measured.measured == expected.measured


class TestSimulatorMeasuredDetail:
    def test_measured_stats_land_in_detail(self, quantizer):
        measurement = execute_layer(
            NANO_CONFIG, sequence_length=8, quantizer=quantizer, seed=2
        )
        workload = model_workload("bert-base", sequence_length=8)
        result = AcceleratorSimulator(mokey_design()).simulate(
            workload, 512 * KB, measured_stats=measurement.stats
        )
        assert result.detail["measured_gaussian_pairs"] == measurement.stats.gaussian_pairs
        assert result.detail["measured_outlier_pairs"] == measurement.stats.outlier_pairs
        assert result.detail["measured_outlier_pair_fraction"] == pytest.approx(
            measurement.stats.outlier_pair_fraction
        )

    def test_detail_unchanged_without_measured(self):
        workload = model_workload("bert-base", sequence_length=8)
        result = AcceleratorSimulator(mokey_design()).simulate(workload, 512 * KB)
        assert "measured_gaussian_pairs" not in result.detail


class TestMeasuredCli:
    def test_with_measured_stats_flag(self, nano_model, tmp_path, capsys):
        from repro.cli import main

        args = [
            "campaign", "run",
            "--models", nano_model,
            "--sequence-lengths", "8",
            "--designs", "mokey",
            "--with-measured-stats",
            "--store", str(tmp_path / "store"),
            "--format", "json",
        ]
        code = main(args)
        captured = capsys.readouterr()
        assert code == 0
        assert "1 layers measured" in captured.err
        rows = json.loads(captured.out)
        assert rows[0]["measured_gaussian_pairs"] > 0
        # A second identical run measures nothing (store hit).
        code = main(args)
        captured = capsys.readouterr()
        assert code == 0
        assert "0 layers measured" in captured.err

    def test_report_and_list_surface_measured(self, nano_model, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "store")
        run_spec(measured_spec(nano_grid(nano_model, **ONE_POINT), store=store))
        code = main(["campaign", "report", "--store", store, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        rows = json.loads(captured.out)
        assert rows[0]["measured_gaussian_pairs"] > 0
        code = main(["campaign", "list", "--store", store])
        captured = capsys.readouterr()
        assert code == 0
        assert "1 records carry measured index-domain stats" in captured.out
