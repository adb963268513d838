"""Perf benchmark of the campaign service (submit → complete wall time).

Writes the ``service`` section of ``BENCH_PERF.json``: how long one fixed
campaign grid takes from HTTP submission to terminal state when executed
by 1 vs 4 worker processes, through the full service path — daemon on an
ephemeral port, coordinator sharding, pooled spawned workers, shared
SQLite store.  Both of those runs are **cold**: each daemon is fresh, so
its pool spawns every worker and each worker imports the package first.
The scaling ratio (1-worker time / 4-worker time) is the number the
fan-out design is accountable to; both runs also re-prove the
bit-identity contract (every record digest equals the single-process
oracle's).

``warm_submit_seconds`` is the **warm** leg: after the 4-worker daemon's
first job completes, a second grid of the same shape at a buffer size
nothing has simulated is submitted through the same daemon.  Its workers
are already started and imported, so the number is the grid's own work
plus the service path, and it is asserted under a ceiling (separate
tiny and full values, each about twice the measured time) in both
modes.  Its records must match their own single-process oracle too.

The ratio floor is asserted only in full mode **and** on machines with at
least 4 CPUs: with fewer cores the workers time-slice one core and the
ratio is legitimately ~1x (spawn/import overhead included), which is a
property of the host, not a regression.  The measured ratio and the CPU
count are always recorded, so the trajectory stays honest either way.
"""

import os
import threading
import time

from conftest import TINY_MODE, record_perf

from repro.experiments import ArtifactStore, CampaignSpec, run_spec, store_digest
from repro.service import Coordinator, ServiceClient, make_server

if TINY_MODE:
    SCHEMES = ("fp16", "mokey")
    BATCH_SIZES = (1, 2)
    SEQUENCE_LENGTHS = (16, 32)
    WARM_SUBMIT_CEILING = 0.05
else:
    SCHEMES = ("fp16", "mokey", "gobo", "q8bert")
    BATCH_SIZES = (1, 2, 4, 8)
    SEQUENCE_LENGTHS = (16, 32, 64, 128)
    WARM_SUBMIT_CEILING = 0.15

SCALING_FLOOR = 1.5  # asserted full-mode on >=4-CPU hosts only
# The warm-submit ceilings are ~2x the slowest of several runs on a 2-vCPU
# x86_64 container (tiny 0.012-0.024 s, full 0.045-0.075 s); a daemon that
# started workers per job again would pay a spawn and an import per job.
WAIT = 1200.0
BUFFER_BYTES = 262144
WARM_BUFFER_BYTES = BUFFER_BYTES + 8192  # no earlier job simulated this size


def _spec_dict(name, buffer_bytes=BUFFER_BYTES):
    return {
        "name": name,
        "axes": {
            "models": ["bert-base"],
            "tasks": ["mnli"],
            "schemes": list(SCHEMES),
            "designs": ["mokey"],
            "batch_sizes": list(BATCH_SIZES),
            "buffer_bytes": [buffer_bytes],
            "sequence_lengths": list(SEQUENCE_LENGTHS),
        },
    }


def _oracle(root, spec_dict):
    spec = CampaignSpec.from_dict(spec_dict)
    run_spec(spec.with_execution(store=str(root), resume=True))
    return store_digest(ArtifactStore(root))


def _timed_service_run(tmp_path, name, workers, warm_dict=None):
    """One cold submit→complete round through a fresh daemon + store.

    With ``warm_dict``, that grid is then submitted through the same
    daemon and timed too.  Returns the cold seconds, final status and
    store digest, then the warm seconds and ``{key: digest}`` of the warm
    job's records (``None`` without ``warm_dict``).
    """
    coordinator = Coordinator(tmp_path / name)
    server = make_server("127.0.0.1", 0, coordinator)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        started = time.perf_counter()
        job_id = client.submit(_spec_dict(name), workers=workers)
        final = client.wait(job_id, timeout=WAIT, poll=0.05)
        elapsed = time.perf_counter() - started
        assert final["state"] == "completed", final["error"]
        digest = store_digest(ArtifactStore(tmp_path / name))
        if warm_dict is None:
            return elapsed, final, digest, None, None
        started = time.perf_counter()
        warm_id = client.submit(warm_dict, workers=workers)
        warm = client.wait(warm_id, timeout=WAIT, poll=0.005)
        warm_seconds = time.perf_counter() - started
        assert warm["state"] == "completed", warm["error"]
        warm_rows = {row["key"]: row["digest"] for row in client.results(warm_id)}
        return elapsed, final, digest, warm_seconds, warm_rows
    finally:
        server.shutdown()
        thread.join(5.0)
        coordinator.drain()
        server.server_close()


def test_perf_service_scaling(tmp_path):
    grid_size = len(CampaignSpec.from_dict(_spec_dict("oracle")).scenarios())
    oracle = _oracle(tmp_path / "oracle", _spec_dict("oracle"))
    warm_dict = _spec_dict("warm", WARM_BUFFER_BYTES)
    warm_oracle = _oracle(tmp_path / "oracle-warm", warm_dict)

    one_seconds, one_final, one_digest, _, _ = _timed_service_run(tmp_path, "svc-w1", 1)
    four_seconds, four_final, four_digest, warm_seconds, warm_rows = _timed_service_run(
        tmp_path, "svc-w4", 4, warm_dict
    )

    # The perf claim rides on the correctness claim: both worker counts
    # must land the oracle's exact keys + digests.
    assert one_digest == oracle
    assert four_digest == oracle
    assert one_final["progress"]["completed"] == grid_size
    assert four_final["progress"]["completed"] == grid_size
    assert warm_rows == warm_oracle

    cpu_count = os.cpu_count() or 1
    ratio = one_seconds / four_seconds if four_seconds > 0 else float("inf")
    record_perf(
        "service",
        {
            "grid_size": grid_size,
            "workers_1_seconds": round(one_seconds, 3),
            "workers_4_seconds": round(four_seconds, 3),
            "scaling_ratio": round(ratio, 3),
            "warm_submit_seconds": round(warm_seconds, 3),
            "warm_submit_seconds_ceiling": WARM_SUBMIT_CEILING,
            "scaling_floor": SCALING_FLOOR,
            "cpu_count": cpu_count,
            "floor_asserted": (not TINY_MODE) and cpu_count >= 4,
            "store_backend": "sqlite",
            "bit_identical_to_oracle": True,
        },
    )
    print(
        f"\nservice scaling: {grid_size}-scenario grid — 1 worker "
        f"{one_seconds:.2f}s, 4 workers {four_seconds:.2f}s "
        f"(ratio {ratio:.2f}x, {cpu_count} CPUs, floor {SCALING_FLOOR}x "
        f"{'asserted' if (not TINY_MODE) and cpu_count >= 4 else 'recorded only'}); "
        f"warm 4-worker submit {warm_seconds:.3f}s (ceiling {WARM_SUBMIT_CEILING}s)"
    )
    assert warm_seconds <= WARM_SUBMIT_CEILING, (
        f"a grid submitted to a warm daemon took {warm_seconds:.2f}s (ceiling "
        f"{WARM_SUBMIT_CEILING}s) — are workers started per job again?"
    )
    if not TINY_MODE and cpu_count >= 4:
        assert ratio >= SCALING_FLOOR, (
            f"4-worker service run only {ratio:.2f}x faster than 1-worker "
            f"on {cpu_count} CPUs (floor {SCALING_FLOOR}x)"
        )
