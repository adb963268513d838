"""Perf benchmark of campaign throughput (scenarios simulated per second).

Writes the ``campaign_throughput`` and ``campaign_streaming_overhead``
sections of ``BENCH_PERF.json``: how fast the campaign engine chews
through a fresh (uncached) scenario grid with the serial executor, how
fast a fully-cached re-run resolves, and how much the streaming path
(``iter_campaign`` drained event by event) costs relative to the batch
path (``run_spec``).  The analytic simulator is the hot path of every
figure benchmark and of the ``repro`` CLI, so a regression here shows up
everywhere — and because ``run_spec`` is a thin wrapper that drains the
same streaming engine, streaming must stay within noise of batch (the
guard allows 5%).
"""

import time

from conftest import PAPER_WORKLOAD_SPECS, TINY_MODE, record_perf

from repro.experiments import (
    AxisGrid,
    CampaignSpec,
    ExecutionPolicy,
    ResultCache,
    iter_campaign,
    run_spec,
)

KB = 1024

if TINY_MODE:
    GRID_KWARGS = dict(
        workloads=tuple(PAPER_WORKLOAD_SPECS[:2]),
        designs=("mokey", "tensor-cores"),
        buffer_bytes=(256 * KB, 512 * KB),
    )
else:
    GRID_KWARGS = dict(
        workloads=tuple(PAPER_WORKLOAD_SPECS),
        designs=("mokey", "gobo", "tensor-cores"),
        buffer_bytes=(256 * KB, 512 * KB, 1024 * KB, 2048 * KB),
    )

SPEC = CampaignSpec(
    name="perf-campaign",
    axes=AxisGrid(**GRID_KWARGS),
    execution=ExecutionPolicy(executor="serial"),
)


def test_perf_campaign_throughput():
    scenarios = SPEC.scenarios()
    cache = ResultCache()

    started = time.perf_counter()
    campaign = run_spec(SPEC, cache=cache)
    fresh_seconds = time.perf_counter() - started
    assert campaign.simulated_count == len(scenarios)

    started = time.perf_counter()
    cached = run_spec(SPEC, cache=cache)
    cached_seconds = time.perf_counter() - started
    assert cached.simulated_count == 0

    fresh_rate = len(scenarios) / fresh_seconds
    cached_rate = len(scenarios) / max(cached_seconds, 1e-9)
    print(
        f"\ncampaign throughput: {len(scenarios)} scenarios, "
        f"fresh {fresh_seconds:.2f}s ({fresh_rate:.0f}/s), "
        f"cached {cached_seconds * 1e3:.1f} ms ({cached_rate:.0f}/s)"
    )
    record_perf(
        "campaign_throughput",
        {
            "scenarios": len(scenarios),
            "fresh_seconds": fresh_seconds,
            "fresh_scenarios_per_second": fresh_rate,
            "cached_seconds": cached_seconds,
            "cached_scenarios_per_second": cached_rate,
        },
    )
    # Coarse sanity floors: the analytic simulator is ~ms per scenario and
    # cache hits are micro-seconds; anything slower than these is a real
    # structural regression, not machine noise.
    assert fresh_rate > 5.0
    assert cached_rate > 100.0


def test_perf_streaming_overhead_under_5_percent():
    """Draining ``iter_campaign`` must cost within 5% of the batch path.

    Both paths run the same streaming engine underneath, so any real gap
    is structural (e.g. per-event work leaking into the generator).
    Three rounds of best-of-3 per side, alternating A/B inside each round
    to decorrelate thermal/scheduler noise; the guard compares the
    *median* of the per-round best ratios, so one lucky (or unlucky)
    round cannot swing the verdict.  The recorded fraction is clamped at
    0 — streaming measuring faster than batch is timer noise, and a
    negative "overhead" in BENCH_PERF.json would read as if streaming
    were structurally cheaper than the engine it wraps.
    """
    rounds, reps = 3, 3
    ratios = []
    batch_best = float("inf")
    stream_best = float("inf")
    record_count = None
    for _ in range(rounds):
        round_batch = float("inf")
        round_stream = float("inf")
        for _ in range(reps):
            started = time.perf_counter()
            campaign = run_spec(SPEC)
            round_batch = min(round_batch, time.perf_counter() - started)
            assert campaign.simulated_count == len(campaign)

            started = time.perf_counter()
            records = [record for record, _progress in iter_campaign(SPEC)]
            round_stream = min(round_stream, time.perf_counter() - started)
            record_count = len(records)
        ratios.append(round_stream / round_batch)
        batch_best = min(batch_best, round_batch)
        stream_best = min(stream_best, round_stream)

    median_ratio = sorted(ratios)[len(ratios) // 2]
    overhead = max(0.0, median_ratio - 1.0)
    print(
        f"\nstreaming overhead: batch {batch_best * 1e3:.1f} ms, "
        f"streamed {stream_best * 1e3:.1f} ms over {record_count} records "
        f"(median ratio {median_ratio:.3f}, reported overhead {overhead * 100:.1f}%)"
    )
    record_perf(
        "campaign_streaming_overhead",
        {
            "records": record_count,
            "batch_best_seconds": batch_best,
            "streaming_best_seconds": stream_best,
            "median_ratio": median_ratio,
            "overhead_fraction": overhead,
        },
    )
    assert median_ratio - 1.0 < 0.05, (
        f"streaming path {(median_ratio - 1.0) * 100:.1f}% slower than batch "
        f"(median of {rounds} best-of-{reps} rounds; allowed: 5%)"
    )
