"""Trace replay: queueing, batching and dispatch over simulated accelerators.

The replay loop is an event-driven queueing simulation.  Requests arrive
at trace instants, wait in one FIFO queue, are coalesced into batches by
a :class:`~repro.serving.policies.PolicySpec`, and each batch occupies
the earliest-free accelerator for the batch's inference latency — taken
from the cycle model (``total_cycles / clock_hz``) of the existing
:class:`~repro.accelerator.simulator.AcceleratorSimulator`.

The expensive part — simulating one ``(workload, batch, scheme, design)``
shape — is memoised by :class:`BatchCostModel`: each distinct batch size
maps to an ordinary campaign :class:`~repro.experiments.scenario.Scenario`
with ``batch_size=B``, looked up through a
:class:`~repro.experiments.campaign.ResultCache` (and therefore through
the artifact store) before anything simulates.  A million-request
trace touching 11 distinct batch sizes costs exactly 11 real simulations
on a cold store, and zero on a warm one.

Everything in this module is deterministic: the loop consumes a fixed
arrival array, ties in engine selection break by lowest index, and all
statistics derive from the same float64 sequences in the same order —
so serial, thread and process replays of one spec are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro._fields import known_fields
from repro.experiments.campaign import ResultCache, run_scenario
from repro.experiments.scenario import Scenario
from repro.serving.policies import PolicySpec, release_time

__all__ = [
    "BatchCost",
    "BatchCostModel",
    "ServingMetrics",
    "ReplayResult",
    "replay_trace",
]


class BatchCost(NamedTuple):
    """Cost of running one batch through the accelerator once."""

    latency_s: float
    energy_j: float


class BatchCostModel:
    """Memoised per-batch-size latency/energy from the cycle model.

    Each batch size ``B`` becomes the ordinary campaign scenario
    ``replace(base, batch_size=B)``; the first request for ``B`` resolves
    through ``cache`` (in-memory → backing store) and simulates only on a
    full miss.  Fresh results are written through the cache when
    ``write_through`` (and always collected in :attr:`fresh` so a caller
    that must not write — e.g. a process-pool worker — can hand them to
    the parent to persist).

    Attributes:
        simulated: Real simulator invocations (cold shapes).
        from_store: Shapes served by the cache/store without simulating.
        fresh: ``(scenario, result)`` pairs simulated by this model.
    """

    def __init__(
        self,
        base: Scenario,
        cache: Optional[ResultCache] = None,
        write_through: bool = True,
    ) -> None:
        self.base = base
        self._cache = cache
        self._write_through = write_through
        self._clock_hz = float(base.build_design().clock_hz)
        self._memo: Dict[int, BatchCost] = {}
        self.simulated = 0
        self.from_store = 0
        self.fresh: List[Tuple[Scenario, Any]] = []

    def scenario_for(self, batch_size: int) -> Scenario:
        return replace(self.base, batch_size=int(batch_size))

    def cost(self, batch_size: int) -> BatchCost:
        """Latency/energy for one batch of ``batch_size`` requests."""
        memoised = self._memo.get(batch_size)
        if memoised is not None:
            return memoised
        scenario = self.scenario_for(batch_size)
        result = None
        if self._cache is not None:
            result = self._cache.lookup(scenario)
            if result is not None:
                self.from_store += 1
        if result is None:
            result = run_scenario(scenario)
            self.simulated += 1
            self.fresh.append((scenario, result))
            if self._cache is not None and self._write_through:
                self._cache.store(scenario, result)
        cost = BatchCost(
            latency_s=float(result.total_cycles) / self._clock_hz,
            energy_j=float(result.energy.total),
        )
        self._memo[batch_size] = cost
        return cost


@dataclass(frozen=True)
class ServingMetrics:
    """What one trace replay measured, per scheme × design combo.

    Latencies are end-to-end (arrival → batch completion) in
    milliseconds; percentiles use the nearest-rank definition, so every
    reported value is an actual request's latency.

    Attributes:
        requests: Requests served (the trace length).
        batches: Batches formed by the policy.
        distinct_batch_sizes: Distinct formed batch sizes — the upper
            bound on real simulator invocations for the whole replay.
        mean_batch_size: ``requests / batches``.
        p50_ms, p95_ms, p99_ms, max_ms: Latency tail.
        mean_ms: Mean latency.
        throughput_rps: ``requests / span_s``.
        goodput_rps: Within-SLO completions per second (equals
            :attr:`throughput_rps` when no SLO is set).
        slo_ms: The SLO the replay was scored against, if any.
        slo_attainment: Fraction of requests within the SLO (1 when no
            SLO is set).
        energy_per_request_j: Accelerator energy divided by requests.
        total_energy_j: Total accelerator energy over the trace.
        utilisation: Busy-time fraction across all accelerators over the
            serving span.
        mean_queue_depth: Mean queued requests at batch-formation
            instants.
        max_queue_depth: Deepest the queue ever got.
        span_s: First arrival → last completion.
    """

    requests: int
    batches: int
    distinct_batch_sizes: int
    mean_batch_size: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    mean_ms: float
    throughput_rps: float
    goodput_rps: float
    slo_ms: Optional[float]
    slo_attainment: float
    energy_per_request_j: float
    total_energy_j: float
    utilisation: float
    mean_queue_depth: float
    max_queue_depth: int
    span_s: float

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServingMetrics":
        return cls(**known_fields(cls, data))


@dataclass(frozen=True)
class ReplayResult:
    """A replay's metrics plus the cost-model bookkeeping behind them.

    Attributes:
        metrics: The measured serving behaviour.
        batch_size_counts: Formed-batch histogram (size → count).
    """

    metrics: ServingMetrics
    batch_size_counts: Dict[int, int]


def _percentile_ms(sorted_latencies_s: np.ndarray, q: float) -> float:
    """Nearest-rank percentile, in milliseconds."""
    n = len(sorted_latencies_s)
    rank = min(n - 1, max(0, math.ceil(q / 100.0 * n) - 1))
    return float(sorted_latencies_s[rank]) * 1000.0


def replay_trace(
    arrivals: np.ndarray,
    policy: PolicySpec,
    cost: Callable[[int], BatchCost],
    num_accelerators: int = 1,
    slo_ms: Optional[float] = None,
) -> ReplayResult:
    """Replay one arrival trace through the batching policy and engines.

    Args:
        arrivals: Sorted arrival seconds (see
            :func:`~repro.serving.traces.generate_trace`).
        policy: When queued requests become a batch.
        cost: ``batch_size -> BatchCost`` (typically
            ``BatchCostModel(...).cost``).
        num_accelerators: Identical engines fed from one queue; a batch
            goes to the earliest-free one (ties break by index).
        slo_ms: Latency objective scoring :attr:`ServingMetrics.goodput_rps`.

    Returns:
        The replay's :class:`ReplayResult`; purely deterministic in its
        inputs.
    """
    n = int(len(arrivals))
    if n == 0:
        raise ValueError("cannot replay an empty trace")
    if num_accelerators < 1:
        raise ValueError(f"num_accelerators must be >= 1, got {num_accelerators!r}")
    max_batch = int(policy.max_batch)
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {policy.max_batch!r}")

    free = [0.0] * num_accelerators
    busy = 0.0
    latencies = np.empty(n, dtype=np.float64)
    last_arrival = float(arrivals[-1])
    head = 0  # oldest queued request; the queue is arrivals[head:tail]
    tail = 0  # next arrival not yet queued
    batches = 0
    size_counts: Dict[int, int] = {}
    depth_sum = 0
    depth_max = 0
    energy_j = 0.0
    last_completion = 0.0

    while head < n:
        if head == tail:  # queue empty: admit the next arrival
            tail += 1
            continue
        # Instant the head batch reaches max_batch requests (inf when the
        # remaining trace cannot fill it).  The queue is a contiguous
        # arrival window, so this is just an index into the trace.
        fill_index = head + max_batch - 1
        fill_s = float(arrivals[fill_index]) if fill_index < n else math.inf
        release_s = release_time(policy, float(arrivals[head]), fill_s, last_arrival)
        dispatch_s = max(release_s, min(free))
        if tail < n and float(arrivals[tail]) <= dispatch_s:
            # Arrivals land before the batch goes out: admit them and
            # re-evaluate (the batch may now fill, moving release earlier).
            while tail < n and float(arrivals[tail]) <= dispatch_s:
                tail += 1
            continue
        depth = tail - head
        depth_sum += depth
        if depth > depth_max:
            depth_max = depth
        size = min(depth, max_batch)
        batch_cost = cost(size)
        engine = min(range(num_accelerators), key=free.__getitem__)
        completion = dispatch_s + batch_cost.latency_s
        free[engine] = completion
        busy += batch_cost.latency_s
        energy_j += batch_cost.energy_j
        if completion > last_completion:
            last_completion = completion
        latencies[head : head + size] = completion - arrivals[head : head + size]
        head += size
        batches += 1
        size_counts[size] = size_counts.get(size, 0) + 1

    span_s = max(last_completion - float(arrivals[0]), 0.0)
    sorted_lat = np.sort(latencies)
    mean_ms = float(np.sum(latencies)) / n * 1000.0
    throughput = n / span_s if span_s > 0 else math.inf
    if slo_ms is None:
        within = n
        attainment = 1.0
    else:
        within = int(np.count_nonzero(latencies * 1000.0 <= slo_ms))
        attainment = within / n
    goodput = within / span_s if span_s > 0 else math.inf
    utilisation = busy / (num_accelerators * span_s) if span_s > 0 else 1.0

    metrics = ServingMetrics(
        requests=n,
        batches=batches,
        distinct_batch_sizes=len(size_counts),
        mean_batch_size=n / batches,
        p50_ms=_percentile_ms(sorted_lat, 50.0),
        p95_ms=_percentile_ms(sorted_lat, 95.0),
        p99_ms=_percentile_ms(sorted_lat, 99.0),
        max_ms=float(sorted_lat[-1]) * 1000.0,
        mean_ms=mean_ms,
        throughput_rps=throughput,
        goodput_rps=goodput,
        slo_ms=None if slo_ms is None else float(slo_ms),
        slo_attainment=attainment,
        energy_per_request_j=energy_j / n,
        total_energy_j=energy_j,
        utilisation=min(utilisation, 1.0),
        mean_queue_depth=depth_sum / batches,
        max_queue_depth=depth_max,
        span_s=span_s,
    )
    return ReplayResult(
        metrics=metrics,
        batch_size_counts=dict(sorted(size_counts.items())),
    )
