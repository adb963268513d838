"""Tests for the serving-traffic simulator (:mod:`repro.serving`).

Covers the four layers independently and end to end: seeded trace
generators (determinism, sortedness, shape), batching-policy release
semantics (hand-computed tiny traces against a fake cost model), the
replay event loop (every metric checked against a worked example), and
the ServingSpec execution layer (executor bit-identity, store
memoisation across backends, kill→resume without re-simulation).
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import ResultCache, Scenario, open_store
from repro.registry import POLICIES, TRACES, RegistryError
from repro.serving import (
    BatchCost,
    BatchCostModel,
    PolicySpec,
    ServingSpec,
    TraceSpec,
    generate_trace,
    iter_serving,
    replay_trace,
    run_serving,
)
from repro.serving.policies import release_time

KB = 1024

TRACE_KINDS = ("poisson", "bursty", "diurnal")


def flat_cost(latency_s=0.010):
    """Fake cost model: constant latency, energy equal to the batch size."""
    return lambda size: BatchCost(latency_s=latency_s, energy_j=float(size))


# --------------------------------------------------------------------------- #
# Traces.
# --------------------------------------------------------------------------- #


class TestTraces:
    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_shape_sortedness_and_positivity(self, kind):
        spec = TraceSpec(kind=kind, rate_rps=200.0, num_requests=500, seed=42)
        arrivals = generate_trace(spec)
        assert arrivals.shape == (500,)
        assert arrivals.dtype == np.float64
        assert np.all(np.diff(arrivals) >= 0)
        assert arrivals[0] > 0

    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_same_seed_is_bit_identical_and_seeds_differ(self, kind):
        spec = TraceSpec(kind=kind, rate_rps=100.0, num_requests=300, seed=7)
        assert np.array_equal(generate_trace(spec), generate_trace(spec))
        other = generate_trace(replace(spec, seed=8))
        assert not np.array_equal(generate_trace(spec), other)

    def test_poisson_mean_rate_is_roughly_right(self):
        spec = TraceSpec(kind="poisson", rate_rps=100.0, num_requests=20_000, seed=0)
        arrivals = generate_trace(spec)
        empirical = spec.num_requests / arrivals[-1]
        assert empirical == pytest.approx(100.0, rel=0.05)

    def test_params_reach_the_generator(self):
        base = TraceSpec(kind="diurnal", rate_rps=100.0, num_requests=200, seed=1)
        flat = replace(base, params={"amplitude": 0.0})
        assert not np.array_equal(generate_trace(base), generate_trace(flat))

    def test_unknown_kind_has_did_you_mean(self):
        with pytest.raises(RegistryError, match="did you mean 'poisson'"):
            generate_trace(TraceSpec(kind="poison"))

    def test_spec_round_trips_through_json_dict(self):
        spec = TraceSpec(
            kind="bursty", rate_rps=50.0, num_requests=10, seed=3,
            params={"burst_factor": 6.0, "mean_dwell_s": 2.0},
        )
        assert TraceSpec.from_dict(spec.to_dict()) == spec
        # params normalise to a sorted tuple whatever the input order.
        assert spec.params == (("burst_factor", 6.0), ("mean_dwell_s", 2.0))
        assert spec.param("burst_factor", 4.0) == 6.0
        assert spec.param("missing", 1.5) == 1.5

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError, match="num_requests"):
            generate_trace(TraceSpec(num_requests=0))
        with pytest.raises(ValueError, match="rate_rps"):
            generate_trace(TraceSpec(rate_rps=0.0))

    def test_registry_view_is_live(self):
        assert set(TRACE_KINDS) <= set(TRACES.names())
        for kind in TRACE_KINDS:
            assert TRACES.describe(kind)


# --------------------------------------------------------------------------- #
# Policies.
# --------------------------------------------------------------------------- #


class TestPolicies:
    def test_continuous_releases_at_queue_head(self):
        spec = PolicySpec(kind="continuous", max_batch=8)
        assert release_time(spec, 1.5, 2.0, 9.0) == 1.5
        assert release_time(spec, 1.5, math.inf, 9.0) == 1.5

    def test_max_batch_waits_for_fill_then_flushes_tail(self):
        spec = PolicySpec(kind="max-batch", max_batch=4)
        assert release_time(spec, 1.0, 3.0, 9.0) == 3.0
        # Unfillable remainder flushes once the last request has arrived.
        assert release_time(spec, 1.0, math.inf, 9.0) == 9.0
        assert release_time(spec, 10.0, math.inf, 9.0) == 10.0

    def test_timeout_is_fill_or_deadline_whichever_first(self):
        spec = PolicySpec(kind="timeout", max_batch=8, timeout_ms=10.0)
        assert release_time(spec, 1.0, 1.005, 9.0) == 1.005
        assert release_time(spec, 1.0, 1.5, 9.0) == pytest.approx(1.010)
        assert release_time(spec, 1.0, math.inf, 9.0) == pytest.approx(1.010)

    def test_unknown_kind_has_did_you_mean(self):
        with pytest.raises(RegistryError, match="did you mean 'timeout'"):
            release_time(PolicySpec(kind="timeut"), 0.0, 1.0, 2.0)
        assert set(POLICIES.names()) >= {"continuous", "max-batch", "timeout"}

    def test_spec_round_trips_and_labels(self):
        spec = PolicySpec(kind="max-batch", max_batch=16, timeout_ms=5.0)
        assert PolicySpec.from_dict(spec.to_dict()) == spec
        assert spec.label == "max-batch(b<=16)"
        assert PolicySpec(kind="timeout", timeout_ms=2.5, max_batch=4).label == (
            "timeout(2.5ms,b<=4)"
        )


# --------------------------------------------------------------------------- #
# Replay loop: a fully hand-computed example.
# --------------------------------------------------------------------------- #


class TestReplay:
    def test_continuous_replay_matches_hand_computation(self):
        # 10ms constant batch latency, energy == batch size.  Walked by
        # hand: batches are [r0], [r1, r2], [r3], [r4] — the second forms
        # because r2 (0.002s) lands while the engine is busy until 0.010s.
        arrivals = np.array([0.0, 0.001, 0.002, 0.100, 0.101])
        replay = replay_trace(arrivals, PolicySpec(kind="continuous", max_batch=8), flat_cost())
        m = replay.metrics
        assert replay.batch_size_counts == {1: 3, 2: 1}
        assert m.requests == 5
        assert m.batches == 4
        assert m.distinct_batch_sizes == 2
        assert m.mean_batch_size == pytest.approx(1.25)
        # Latencies: [10, 19, 18, 10, 19] ms.
        assert m.p50_ms == pytest.approx(18.0)
        assert m.p95_ms == pytest.approx(19.0)
        assert m.p99_ms == pytest.approx(19.0)
        assert m.max_ms == pytest.approx(19.0)
        assert m.mean_ms == pytest.approx((10 + 19 + 18 + 10 + 19) / 5)
        # Span 0.0 → 0.12s; 4 batches × 10ms busy on one engine.
        assert m.span_s == pytest.approx(0.12)
        assert m.throughput_rps == pytest.approx(5 / 0.12)
        assert m.utilisation == pytest.approx(0.04 / 0.12)
        assert m.total_energy_j == pytest.approx(1 + 2 + 1 + 1)
        assert m.energy_per_request_j == pytest.approx(5 / 5)
        assert m.mean_queue_depth == pytest.approx(1.25)
        assert m.max_queue_depth == 2
        # No SLO: goodput is throughput, attainment is 1.
        assert m.goodput_rps == m.throughput_rps
        assert m.slo_attainment == 1.0

    def test_max_batch_waits_and_flushes_remainder(self):
        arrivals = np.array([0.0, 1.0, 2.0, 3.0])
        replay = replay_trace(arrivals, PolicySpec(kind="max-batch", max_batch=2), flat_cost())
        assert replay.batch_size_counts == {2: 2}
        remainder = replay_trace(
            np.array([0.0, 10.0]), PolicySpec(kind="max-batch", max_batch=4), flat_cost()
        )
        # Unfillable: both requests flush as one batch at the trace end.
        assert remainder.batch_size_counts == {2: 1}
        assert remainder.metrics.max_ms == pytest.approx((10.0 + 0.010) * 1000.0)

    def test_timeout_forms_partial_batch_at_deadline(self):
        arrivals = np.array([0.0, 0.005, 0.1])
        replay = replay_trace(
            arrivals, PolicySpec(kind="timeout", max_batch=8, timeout_ms=10.0), flat_cost()
        )
        assert replay.batch_size_counts == {1: 1, 2: 1}
        assert replay.metrics.p50_ms == pytest.approx(20.0)  # [20, 15, 20] ms

    def test_slo_splits_goodput_from_throughput(self):
        arrivals = np.array([0.0, 0.001, 0.002, 0.100, 0.101])
        replay = replay_trace(
            arrivals, PolicySpec(kind="continuous", max_batch=8), flat_cost(), slo_ms=15.0
        )
        m = replay.metrics
        # Latencies [10, 19, 18, 10, 19]: 2 of 5 within 15ms.
        assert m.slo_ms == 15.0
        assert m.slo_attainment == pytest.approx(2 / 5)
        assert m.goodput_rps == pytest.approx(m.throughput_rps * 2 / 5)

    def test_second_accelerator_overlaps_batches(self):
        arrivals = np.array([0.0, 0.001])
        policy = PolicySpec(kind="continuous", max_batch=1)
        serial = replay_trace(arrivals, policy, flat_cost(), num_accelerators=1)
        twin = replay_trace(arrivals, policy, flat_cost(), num_accelerators=2)
        # One engine: r1 waits for r0's batch (completes 0.020).  Two
        # engines: r1 dispatches at its arrival (completes 0.011).
        assert serial.metrics.max_ms == pytest.approx(19.0)
        assert twin.metrics.max_ms == pytest.approx(10.0)
        assert twin.metrics.mean_queue_depth == 1.0

    def test_empty_trace_and_bad_counts_rejected(self):
        with pytest.raises(ValueError, match="empty trace"):
            replay_trace(np.array([]), PolicySpec(), flat_cost())
        with pytest.raises(ValueError, match="num_accelerators"):
            replay_trace(np.array([0.0]), PolicySpec(), flat_cost(), num_accelerators=0)
        with pytest.raises(ValueError, match="max_batch"):
            replay_trace(np.array([0.0]), PolicySpec(max_batch=0), flat_cost())


# --------------------------------------------------------------------------- #
# Cost model: memoisation through the campaign cache and store.
# --------------------------------------------------------------------------- #


class TestBatchCostModel:
    def test_each_distinct_size_simulates_once(self):
        model = BatchCostModel(Scenario(scheme="mokey-oc"), cache=ResultCache())
        costs = [model.cost(size) for size in (1, 2, 1, 4, 2, 1)]
        assert model.simulated == 3  # sizes 1, 2, 4
        assert model.from_store == 0
        assert costs[0] == costs[2] == costs[5]
        assert costs[0].latency_s > 0 and costs[0].energy_j > 0
        # Larger batches cost more in total but amortise per request.
        assert costs[3].latency_s > costs[0].latency_s
        assert costs[3].latency_s < 4 * costs[0].latency_s

    def test_warm_store_serves_every_shape(self, tmp_path):
        store = open_store(tmp_path / "s", backend="sqlite")
        base = Scenario(scheme="mokey-oc")
        cold = BatchCostModel(base, cache=ResultCache(store=store))
        cold_costs = [cold.cost(size) for size in (1, 3)]
        assert cold.simulated == 2
        warm = BatchCostModel(base, cache=ResultCache(store=store))
        warm_costs = [warm.cost(size) for size in (1, 3)]
        assert warm.simulated == 0
        assert warm.from_store == 2
        assert warm_costs == cold_costs  # bit-identical through the store

    def test_write_through_false_collects_fresh_pairs(self, tmp_path):
        store = open_store(tmp_path / "s", backend="jsonl")
        model = BatchCostModel(
            Scenario(scheme="mokey-oc"), cache=ResultCache(store=store), write_through=False
        )
        model.cost(2)
        assert len(store) == 0  # nothing persisted by the worker itself
        assert [s.batch_size for s, _ in model.fresh] == [2]


# --------------------------------------------------------------------------- #
# ServingSpec end to end.
# --------------------------------------------------------------------------- #

TINY = ServingSpec(
    name="test",
    schemes=("mokey-oc", "fp16"),
    designs=("mokey",),
    trace=TraceSpec(kind="poisson", rate_rps=150.0, num_requests=400, seed=5),
    policy=PolicySpec(kind="timeout", max_batch=4, timeout_ms=10.0),
)


def rows_of(spec, cache=None):
    return [record.to_row() for record in run_serving(spec, cache=cache).records]


class TestServingSpec:
    def test_round_trips_through_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = TINY.with_execution(store=str(tmp_path / "s"), store_backend="sqlite")
        spec.save(path)
        assert ServingSpec.load(path) == spec

    def test_validate_names_every_bad_axis(self):
        with pytest.raises(RegistryError, match="did you mean 'bert-base'"):
            replace(TINY, model="bert-bas").validate()
        with pytest.raises(RegistryError, match="did you mean 'poisson'"):
            replace(TINY, trace=TraceSpec(kind="poison")).validate()
        with pytest.raises(RegistryError, match="did you mean 'max-batch'"):
            replace(TINY, policy=PolicySpec(kind="max-batc")).validate()
        with pytest.raises(ValueError, match="num_accelerators"):
            replace(TINY, num_accelerators=0).validate()
        # iter_serving validates eagerly, before any simulation.
        with pytest.raises(RegistryError):
            iter_serving(replace(TINY, designs=("mokeyy",)))

    @pytest.mark.parametrize(
        "changes, message",
        [
            pytest.param([1], "a serving spec must be an object", id="spec-list"),
            pytest.param({"schemes": "mokey"}, "schemes must be a list",
                         id="schemes-string"),
            pytest.param({"schemes": 5}, "schemes must be a list", id="schemes-scalar"),
            pytest.param({"trace": [1]}, "'trace' must be an object", id="trace-list"),
            pytest.param({"trace": {"rate_rps": "200"}}, "trace.rate_rps must be positive",
                         id="rate-string"),
            pytest.param({"policy": {"max_batch": "4"}}, "policy.max_batch must be an integer",
                         id="max-batch-string"),
            pytest.param({"buffer_bytes": True}, "buffer_bytes must be an integer",
                         id="buffer-bool"),
            pytest.param({"trace": {"num_requests": 1.5}},
                         "trace.num_requests must be an integer", id="requests-fraction"),
            pytest.param({"trace": {"num_requests": True}},
                         "trace.num_requests must be an integer", id="requests-bool"),
            pytest.param({"execution": {"resume": "no"}}, "resume must be true or false",
                         id="resume-string"),
        ],
    )
    def test_malformed_spec_values_fail_in_one_line(self, changes, message):
        if isinstance(changes, dict):
            data = TINY.to_dict()
            for key, value in changes.items():
                if isinstance(value, dict):
                    data[key].update(value)
                else:
                    data[key] = value
        else:
            data = changes
        with pytest.raises(ValueError, match=message) as excinfo:
            spec = ServingSpec.from_dict(json.loads(json.dumps(data)))
            # Saving must not launder a malformed value into a valid one.
            ServingSpec.from_json(spec.to_json()).validate()
        assert "\n" not in str(excinfo.value)

    def test_combos_cross_schemes_and_designs(self):
        combos = TINY.combos()
        assert [(c.scheme, c.design) for c in combos] == [
            ("mokey-oc", "mokey"), ("fp16", "mokey")
        ]
        assert all(c.batch_size == 1 for c in combos)

    def test_executors_are_bit_identical(self):
        baseline = rows_of(TINY.with_execution(executor="serial", store=None))
        for executor in ("thread", "process"):
            assert rows_of(TINY.with_execution(executor=executor, store=None)) == baseline

    @pytest.mark.parametrize("backend", ("jsonl", "sqlite"))
    def test_warm_store_rerun_simulates_nothing(self, tmp_path, backend):
        spec = TINY.with_execution(store=str(tmp_path / "s"), store_backend=backend)
        cold = run_serving(spec)
        assert cold.simulated > 0
        for record in cold.records:
            assert record.simulated <= record.metrics.distinct_batch_sizes
        warm = run_serving(spec)
        assert warm.simulated == 0
        assert warm.from_store == cold.simulated
        # Metrics are bit-identical; only the simulated bookkeeping moves.
        assert [r.metrics.to_dict() for r in warm.records] == [
            r.metrics.to_dict() for r in cold.records
        ]
        assert [r.to_row() | {"simulated": 0} for r in cold.records] == [
            r.to_row() for r in warm.records
        ]

    def test_backends_and_executors_agree_bitwise(self, tmp_path):
        results = {}
        for backend in ("jsonl", "sqlite"):
            for executor in ("serial", "process"):
                spec = TINY.with_execution(
                    store=str(tmp_path / f"{backend}-{executor}"),
                    store_backend=backend,
                    executor=executor,
                )
                results[(backend, executor)] = [
                    record.metrics.to_dict() for record in run_serving(spec).records
                ]
        baseline = results[("jsonl", "serial")]
        assert all(metrics == baseline for metrics in results.values())

    def test_killed_run_resumes_without_resimulating(self, tmp_path):
        spec = TINY.with_execution(store=str(tmp_path / "s"), store_backend="sqlite")
        events = iter_serving(spec)
        first_record, first_progress = next(events)
        events.close()  # "kill" after one of two combos
        assert first_progress.completed == 1
        assert first_record.simulated > 0

        resumed = run_serving(spec)
        assert [r.scheme_label for r in resumed.records] == ["mokey-oc", "fp16"]
        # The completed combo's batch shapes all come from the store.
        assert resumed.records[0].simulated == 0
        assert resumed.records[0].from_store == first_record.simulated
        assert resumed.records[0].to_row() == first_record.to_row() | {"simulated": 0}
        # Only the un-run combo simulates.
        assert resumed.simulated == resumed.records[1].simulated > 0

    def test_progress_counts_accumulate(self):
        spec = TINY.with_execution(store=None)
        seen = [progress for _record, progress in iter_serving(spec)]
        assert [p.completed for p in seen] == [1, 2]
        assert all(p.total == 2 for p in seen)
        assert seen[-1].requests == 2 * TINY.trace.num_requests
        assert "batch shapes simulated" in str(seen[-1])

    def test_schemes_change_the_served_latency(self):
        records = run_serving(TINY.with_execution(store=None)).records
        by_scheme = {record.scheme_label: record.metrics for record in records}
        assert set(by_scheme) == {"mokey-oc", "fp16"}
        # fp16 streams 4x the bytes of the 4-bit scheme: it must be
        # strictly slower and hungrier per request under identical load.
        assert by_scheme["fp16"].p50_ms > by_scheme["mokey-oc"].p50_ms
        assert (
            by_scheme["fp16"].energy_per_request_j
            > by_scheme["mokey-oc"].energy_per_request_j
        )

    def test_serving_rows_fit_the_reporting_helpers(self):
        from repro.analysis.reporting import format_records

        rows = rows_of(TINY.with_execution(store=None))
        table = format_records(rows, "table")
        assert "p99_ms" in table and "goodput_rps" in table
        csv_text = format_records(rows, "csv")
        assert csv_text.splitlines()[0].startswith("model,task,sequence_length,scheme")


class TestDecodeStreams:
    """The serving-facing multi-stream software decode entry point."""

    def test_replay_decode_streams_round_trip(self, quantizer):
        from repro.serving import DecodeStreamsResult, replay_decode_streams
        from repro.transformer.config import TransformerConfig

        micro = TransformerConfig(
            name="gpt-micro-serving",
            num_layers=1,
            hidden_size=32,
            num_heads=4,
            intermediate_size=64,
            vocab_size=128,
            max_position_embeddings=64,
        )
        result = replay_decode_streams(
            model=micro,
            num_streams=2,
            prompt_length=4,
            decode_tokens=3,
            quantizer=quantizer,
        )
        assert isinstance(result, DecodeStreamsResult)
        assert result.num_streams == 2
        assert result.prompt_length == 4 and result.decode_tokens == 3
        assert result.tokens_per_second > 0
        assert result.tokens_per_second == pytest.approx(
            2 * result.per_stream_tokens_per_second
        )
        assert result.output_rms_error < 0.5
        assert result.plane_cache is not None
        assert result.plane_cache["attached_hits"] > 0
        payload = result.to_dict()
        assert payload["num_streams"] == 2
        import json

        json.dumps(payload)  # BENCH_PERF-ready: plain JSON types only
