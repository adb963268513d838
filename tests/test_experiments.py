"""Tests for the scenario/campaign sweep engine."""

import importlib

import pytest

from repro.accelerator.simulator import AcceleratorSimulator
from repro.accelerator.mokey_accel import mokey_design
from repro.accelerator.tensor_cores import tensor_cores_design
from repro.accelerator.workloads import model_workload
from repro.experiments import (
    AxisGrid,
    CampaignSpec,
    ResultCache,
    Scenario,
    run_scenario,
    run_spec,
)
from repro.registry import DESIGNS

KB = 1024
MB = 1024 * 1024


class TestScenario:
    def test_frozen_and_hashable(self):
        a = Scenario(model="bert-base", task="mnli", buffer_bytes=256 * KB)
        b = Scenario(model="bert-base", task="mnli", buffer_bytes=256 * KB)
        assert a == b
        assert hash(a) == hash(b)
        with pytest.raises(Exception):
            a.model = "bert-large"

    def test_sequence_length_defaults_from_task(self):
        assert Scenario(task="squad").resolved_sequence_length == 384
        assert Scenario(task="mnli").resolved_sequence_length == 128
        assert Scenario(task="squad", sequence_length=512).resolved_sequence_length == 512

    def test_build_workload_threads_batch_size(self):
        workload = Scenario(model="bert-base", task="mnli", batch_size=4).build_workload()
        assert workload.batch_size == 4
        assert workload.name.endswith("/bs4")
        single = Scenario(model="bert-base", task="mnli").build_workload()
        assert workload.total_macs == 4 * single.total_macs

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            Scenario(batch_size=0).build_workload()
        with pytest.raises(ValueError):
            Scenario(sequence_length=0).build_workload()

    def test_build_design_from_registry(self):
        assert Scenario(design="mokey").build_design().datapath == "mokey"
        with pytest.raises(ValueError):
            Scenario(design="does-not-exist").build_design()

    def test_scheme_override_reparameterises_design(self):
        design = Scenario(design="tensor-cores", scheme="mokey").build_design()
        assert design.datapath == "mokey"
        assert design.num_units == tensor_cores_design().num_units
        assert design.weight_bits_offchip == pytest.approx(4.4)

    def test_design_registry_contents(self):
        names = DESIGNS.names()
        for expected in (
            "tensor-cores",
            "gobo",
            "mokey",
            "tensor-cores+mokey-oc",
            "tensor-cores+mokey-oc+on",
        ):
            assert expected in names
        assert DESIGNS.get("gobo")().name == "gobo"

    def test_duplicate_design_rejected(self):
        with pytest.raises(ValueError):
            DESIGNS.register("mokey", mokey_design)


@pytest.mark.parametrize("module_name", ["repro", "repro.experiments"])
def test_public_exports_resolve(module_name):
    """Every name in ``__all__`` exists, so ``from module import *`` works."""
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def campaign_of(cache=None, **axes):
    """Run the grid ``axes`` describe through the spec front door."""
    return run_spec(CampaignSpec(axes=AxisGrid(**axes)), cache=cache)


class TestAxisGridExpansion:
    def test_cross_product_counts(self):
        scenarios = AxisGrid(
            models=("bert-base", "bert-large"),
            tasks=("mnli",),
            designs=("tensor-cores", "mokey"),
            buffer_bytes=(256 * KB, 1 * MB),
            batch_sizes=(1, 8),
        ).scenarios()
        assert len(scenarios) == 2 * 2 * 2 * 2
        assert len(set(scenarios)) == len(scenarios)

    def test_workload_specs_override_cross_product(self):
        scenarios = AxisGrid(
            models=("ignored",),
            workloads=[("bert-base", "mnli", None), ("bert-large", "squad", None)],
            designs=("mokey",),
        ).scenarios()
        assert len(scenarios) == 2
        assert {s.model for s in scenarios} == {"bert-base", "bert-large"}


class TestCampaign:
    def test_records_match_direct_simulation(self):
        campaign = campaign_of(
            workloads=[("bert-base", "mnli", None)],
            designs=("mokey",),
            buffer_bytes=(512 * KB,),
        )
        direct = AcceleratorSimulator(mokey_design()).simulate(
            model_workload("bert-base", "mnli"), 512 * KB
        )
        result = campaign.result(design="mokey", buffer_bytes=512 * KB)
        assert result.total_cycles == direct.total_cycles
        assert result.energy.total == direct.energy.total
        assert result.traffic_bytes == direct.traffic_bytes

    def test_record_order_follows_input(self):
        spec = CampaignSpec(axes=AxisGrid(
            workloads=[("bert-base", "mnli", None)],
            designs=("tensor-cores", "mokey"),
            buffer_bytes=(256 * KB, 512 * KB),
        ))
        campaign = run_spec(spec)
        assert [r.scenario for r in campaign] == spec.scenarios()

    def test_cache_hits_on_second_campaign(self):
        cache = ResultCache()
        spec = CampaignSpec(axes=AxisGrid(
            workloads=[("bert-base", "mnli", None)],
            designs=("tensor-cores", "mokey"),
            buffer_bytes=(256 * KB, 512 * KB),
        ))
        points = len(spec.scenarios())
        first = run_spec(spec, cache=cache)
        assert not any(record.cached for record in first)
        assert first.simulated_count == points

        second = run_spec(spec, cache=cache)
        assert all(record.cached for record in second)
        assert second.simulated_count == 0
        for a, b in zip(first, second):
            assert a.result is b.result  # the very same object, not a re-run

    def test_cache_clear_resets_statistics(self):
        cache = ResultCache()
        campaign_of(cache=cache)
        cache.clear()
        assert len(cache) == 0
        # Nothing survives the clear: the same grid simulates again.
        assert campaign_of(cache=cache).simulated_count == 1

    def test_filter_and_to_dicts(self):
        campaign = campaign_of(
            workloads=[("bert-base", "mnli", None)],
            designs=("tensor-cores", "mokey"),
            buffer_bytes=(256 * KB,),
        )
        mokey_only = campaign.filter(design="mokey")
        assert len(mokey_only) == 1
        row = mokey_only.to_dicts()[0]
        for key in ("model", "task", "design", "buffer_bytes", "total_cycles",
                    "traffic_bytes", "energy_joules", "area_mm2", "workload"):
            assert key in row

    def test_result_requires_unique_match(self):
        campaign = campaign_of(
            workloads=[("bert-base", "mnli", None)],
            designs=("tensor-cores", "mokey"),
            buffer_bytes=(256 * KB,),
        )
        with pytest.raises(LookupError):
            campaign.result(buffer_bytes=256 * KB)  # two designs match
        with pytest.raises(LookupError):
            campaign.result(design="gobo")  # none match

    def test_with_batch_size_relabels_cleanly(self):
        batched = model_workload("bert-base", "mnli", batch_size=2)
        rebatched = batched.with_batch_size(4)
        assert rebatched.name.endswith("/bs4")
        assert "/bs2" not in rebatched.name
        assert rebatched.with_batch_size(1).name == model_workload("bert-base", "mnli").name

    def test_run_scenario_standalone(self):
        result = run_scenario(Scenario(design="gobo", buffer_bytes=1 * MB))
        assert result.design_name == "gobo"
        assert result.total_cycles > 0


class TestBatchScalingInvariants:
    @pytest.fixture(scope="class")
    def batch_results(self):
        return campaign_of(
            workloads=[("bert-base", "mnli", None)],
            designs=("tensor-cores", "mokey"),
            buffer_bytes=(256 * KB, 4 * MB),
            batch_sizes=(1, 2),
        )

    @pytest.mark.parametrize("design", ["tensor-cores", "mokey"])
    @pytest.mark.parametrize("size", [256 * KB, 4 * MB])
    def test_batch2_doubles_compute(self, batch_results, design, size):
        r1 = batch_results.result(design=design, buffer_bytes=size, batch_size=1)
        r2 = batch_results.result(design=design, buffer_bytes=size, batch_size=2)
        assert r2.compute_cycles == pytest.approx(2.0 * r1.compute_cycles, rel=1e-12)

    @pytest.mark.parametrize("design", ["tensor-cores", "mokey"])
    @pytest.mark.parametrize("size", [256 * KB, 4 * MB])
    def test_batch2_traffic_amortises_weights(self, batch_results, design, size):
        r1 = batch_results.result(design=design, buffer_bytes=size, batch_size=1)
        r2 = batch_results.result(design=design, buffer_bytes=size, batch_size=2)
        # Weights amortise over the batch: traffic grows, but never doubles.
        assert r1.traffic_bytes <= r2.traffic_bytes <= 2.0 * r1.traffic_bytes + 1e-6

    @pytest.mark.parametrize("design", ["tensor-cores", "mokey"])
    @pytest.mark.parametrize("size", [256 * KB, 4 * MB])
    def test_batch2_total_cycles_bounded(self, batch_results, design, size):
        r1 = batch_results.result(design=design, buffer_bytes=size, batch_size=1)
        r2 = batch_results.result(design=design, buffer_bytes=size, batch_size=2)
        assert r1.total_cycles < r2.total_cycles <= 2.1 * r1.total_cycles
