"""One workload run in a fresh interpreter (started by ``run.py``).

Sets the workload up, prints ``PB-READY`` (the parent's clock stops its
``setup_s`` sample there), and in ``--mode measure`` serves whole blocks
of operations until ``--seconds`` have passed, checks every output, and
prints a human report followed by one ``PB-RESULT {json}`` line.

The sweep workload's coordinator spawns worker processes, which import
this file as their main module: keep module-level code to definitions
and standard-library imports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def tail_latency(values: List[float]):
    """Highest percentile with at least ten samples beyond it, or ``None``.

    Returns ``(seconds, percentile, samples)``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    rank = n - 10  # 1-based: ten samples lie above this one
    return ordered[rank - 1], 100.0 * rank / n, n


def environment(seed: int) -> Dict[str, Any]:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def cpu_counters() -> Optional[Tuple[int, int]]:
    """Machine-wide ``(steal, total)`` CPU jiffies, or ``None`` off Linux.

    Steal is time the hypervisor ran something else on this machine's
    CPUs; its share of the window explains run-to-run spread.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) == 8 else 0), sum(fields)


def peak_rss_mb(workload: str) -> float:
    """High-water RSS of this process; for sweep, also its largest worker's."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "sweep":
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(workload: Any, ops: List[Any], blocks: List[Any]) -> Dict[str, Any]:
    """Failed operations are left out: they count in ``failed`` instead."""
    latency = [op.seconds for op in ops if op.kind in workload.latency_kinds and not op.error]
    through = [op for op in ops if op.kind in workload.throughput_kinds and not op.error]
    if workload.rate_over_ops:
        wall = sum(op.seconds for op in through)
    else:
        wall = sum(block_wall for _i, _t, block_wall in blocks)
    return {
        "latency_p50_s": {"value": statistics.median(latency) if latency else 0.0, "unit": "s"},
        "throughput_per_s": {
            "value": sum(op.items for op in through) / wall if wall else 0.0, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb(workload.name), "unit": "MB"},
    }


def per_layer(workload: Any, ops: List[Any], blocks: List[Any], recorder: Any) -> Dict[str, Any]:
    from spans import LAYER_TARGETS, layer_times
    from workloads import REPLAY_REQUEST

    traced = [(index, op) for index, op in enumerate(ops) if op.traced]
    n = max(len(traced), 1)
    self_s, calls = layer_times(recorder.spans, requests={index for index, _op in traced})
    setup_s, _ = layer_times(recorder.spans, requests={-1})
    replayed = getattr(workload, "replayed", 0)
    replay_s, _ = layer_times(
        recorder.spans, requests=set(range(REPLAY_REQUEST, REPLAY_REQUEST + replayed))
    )

    def total(key: str) -> float:
        return sum(op.counters.get(key, 0) for _index, op in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_job(layer: str) -> float:
        return ratio(replay_s.get(layer, 0.0), replayed)

    traced_wall = sum(wall for _i, is_traced, wall in blocks if is_traced)
    plain_wall = [wall for _i, is_traced, wall in blocks if not is_traced]
    traced_walls = [wall for _i, is_traced, wall in blocks if is_traced]
    if workload.name == "sweep":
        covered = total("queue_s") + total("run_s") + total("stream_s")
    else:
        covered = sum(self_s.values())
    metrics = {
        "core.golden.self_s": (setup_s.get("core.golden", 0.0), "s"),
        "core.fit.calls": (calls.get("core.fit", 0) / n, "count"),
        "core.fit.self_s": (self_s.get("core.fit", 0.0) / n, "s"),
        "core.fit.memo_hit_ratio": (
            ratio(total("memo_hits"), total("memo_hits") + total("memo_misses")), "ratio"),
        "core.encode.calls": (calls.get("core.encode", 0) / n, "count"),
        "core.encode.self_s": (self_s.get("core.encode", 0.0) / n, "s"),
        "core.engine.calls": (calls.get("core.engine", 0) / n, "count"),
        "core.engine.self_s": (self_s.get("core.engine", 0.0) / n, "s"),
        "core.engine.pairs": (total("pairs") / n, "count"),
        "core.engine.outlier_pair_fraction": (
            ratio(total("outlier_pairs"), total("pairs")), "ratio"),
        "core.plane_cache.hit_ratio": (
            ratio(total("plane_hits"), total("plane_hits") + total("plane_misses")), "ratio"),
        "core.plane_cache.bytes_cached": (
            max((op.counters.get("plane_bytes", 0) for _i, op in traced), default=0), "B"),
        "transformer.executor.self_s": (self_s.get("transformer.executor", 0.0) / n, "s"),
        "transformer.weight_cache_hits": (total("weight_cache_hits") / n, "count"),
        "service.queue_s": (total("queue_s") / n, "s"),
        "service.run_s": (total("run_s") / n, "s"),
        "service.stream_s": (total("stream_s") / n, "s"),
        "service.restarts": (total("restarts"), "count"),
        "experiments.store.hit_ratio": (ratio(total("cached"), total("completed")), "ratio"),
        "accelerator.simulated": (total("simulated") / n, "count"),
        "experiments.campaign.self_s": (per_job("experiments.campaign"), "s"),
        "experiments.store.put_s": (per_job("experiments.store.put"), "s"),
        "experiments.store.get_s": (per_job("experiments.store.get"), "s"),
        "accelerator.simulate.self_s": (per_job("accelerator.simulate"), "s"),
        "serving.replay.self_s": (per_job("serving.replay"), "s"),
        "trace.coverage": (ratio(covered, traced_wall), "ratio"),
        "trace.overhead": (
            ratio(statistics.mean(traced_walls), statistics.mean(plain_wall)) - 1.0
            if traced_walls and plain_wall else 0.0,
            "ratio",
        ),
    }
    report = [f"per-layer metrics ({len(traced)} traced ops; times and counts per op):"]
    for name, (value, unit) in metrics.items():
        target = next((t for key, t in LAYER_TARGETS.items() if name.startswith(key + ".")), "")
        report.append(f"  {name:<34} {value:14.6g} {unit:<5} {'-> ' + target if target else ''}")
    report.append("self time by layer (per op, share of traced wall):")
    for layer in sorted(self_s, key=self_s.get, reverse=True):
        share = ratio(self_s[layer], traced_wall)
        report.append(f"  {layer:<24} {self_s[layer] / n:10.4f} s  {share:6.1%}  "
                      f"calls/op {calls.get(layer, 0) / n:8.1f}")
    for layer in sorted(replay_s, key=replay_s.get, reverse=True):
        report.append(f"  replay {layer:<17} {per_job(layer):10.4f} s/job")
    report.append(
        f"  coverage {metrics['trace.coverage'][0]:.1%} of {traced_wall:.2f}s traced wall over "
        f"{len(traced)} ops; tracing overhead {metrics['trace.overhead'][0]:+.1%} "
        f"(traced vs untraced block wall)"
    )
    return {
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
        "report": report,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", required=True, help="directory for spans and scratch stores")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from spans import SpanRecorder, instrument
    from workloads import make_workload

    recorder = SpanRecorder()
    measure = args.mode == "measure"
    if measure and args.trace:
        instrument(recorder)
        recorder.enabled = True  # set-up spans give core.golden
    workload = make_workload(args.workload, args.seed, args.tiny, recorder, args.out)
    try:
        workload.setup()
        recorder.enabled = False
        print("PB-READY", flush=True)
        if not measure:
            return 0
        result = measure_window(workload, recorder, args)
    finally:
        workload.close()
    print(f"PB-RESULT {json.dumps(result)}", flush=True)
    return 0


def measure_window(workload: Any, recorder: Any, args: argparse.Namespace) -> Dict[str, Any]:
    """Serve whole blocks for ``--seconds``, then check and summarise."""
    from workloads import Op

    ops: List[Any] = []
    blocks: List[Any] = []  # (index, traced, wall seconds)
    cpu_before = cpu_counters()
    window = time.perf_counter()
    index = 0
    # A traced run alternates untraced and traced blocks (the difference is
    # the tracing overhead), so it needs at least one of each.
    while time.perf_counter() - window < args.seconds or (args.trace and index < 2):
        traced = bool(args.trace) and index % 2 == 1
        recorder.enabled = traced
        started = time.perf_counter()
        for spec in workload.block(index):
            recorder.request = len(ops)
            try:
                op = workload.run(spec)
            except Exception as exc:  # a failed operation is counted, not fatal
                traceback.print_exc()
                op = Op(kind=spec[0], seconds=0.0, items=0, error=f"{type(exc).__name__}: {exc}")
            op.block, op.traced = index, traced
            ops.append(op)
        blocks.append((index, traced, time.perf_counter() - started))
        recorder.enabled = False
        index += 1
    cpu_after = cpu_counters()
    recorder.enabled = bool(args.trace)
    try:
        errors = workload.finish()
    except Exception as exc:  # the oracle failing is a failed check
        traceback.print_exc()
        errors = [f"{type(exc).__name__}: {exc}"]
    recorder.enabled = False

    failed = [op for op in ops if op.error is not None]
    lines = [f"workload {workload.name}: environment {json.dumps(environment(args.seed))}"]
    if cpu_before and cpu_after and cpu_after[1] > cpu_before[1]:
        steal = (cpu_after[0] - cpu_before[0]) / (cpu_after[1] - cpu_before[1])
        lines.append(f"  host CPU steal during the window: {steal:.1%} of machine CPU time")
    first = [op for op in ops if op.block == 0]
    lines.append(
        f"  numerics digest (block 0, seed {args.seed}): "
        + " ".join(f"{op.kind}:{op.digest}" for op in first)
    )
    for op in failed:
        lines.append(f"  FAILED {op.kind} (block {op.block}): {op.error}")
    for error in errors:
        lines.append(f"  FAILED check: {error}")
    result: Dict[str, Any] = {
        "correct": not failed and not errors,
        "attempted": len(ops),
        "failed": len(failed),
    }
    if args.trace:
        layers = per_layer(workload, ops, blocks, recorder)
        result["metrics"] = layers["metrics"]
        lines += layers["report"]
        path = os.path.join(args.out, f"spans-{workload.name}-seed{args.seed}.json")
        recorder.write(path)
        lines.append(f"  spans written to {os.path.relpath(path, ROOT)}")
    else:
        result["metrics"] = end_to_end(workload, ops, blocks)
        lines += figures_table(workload, ops, blocks, result)
    print("\n".join(lines), flush=True)
    return result


def figures_table(
    workload: Any, ops: List[Any], blocks: List[Any], result: Dict[str, Any]
) -> List[str]:
    """The workload's user-facing figures by name, with units."""
    metrics = result["metrics"]
    latency = [op.seconds for op in ops if op.kind in workload.latency_kinds and not op.error]
    lines = [f"  ops {len(ops)} in {len(blocks)} blocks, "
             f"{sum(wall for _i, _t, wall in blocks):.2f}s wall"]
    lines.append(f"  {workload.latency_name:<18} {metrics['latency_p50_s']['value']:.4f} s "
                 f"(latency_p50_s, n={len(latency)})")
    tail = tail_latency(latency)
    if tail is None or tail[1] < 50.0:
        lines.append(f"  {'latency_tail_s':<18} n/a (n={len(latency)}: no percentile above "
                     "p50 has ten samples beyond it)")
    else:
        lines.append(f"  {'latency_tail_s':<18} {tail[0]:.4f} s (p{tail[1]:.0f}, n={tail[2]})")
    lines.append(f"  {workload.rate_name:<18} {metrics['throughput_per_s']['value']:.3f} "
                 f"1/s (throughput_per_s: {workload.item})")
    lines.append(f"  {'peak_rss_mb':<18} {metrics['peak_rss_mb']['value']:.1f} MB")
    lines.append(f"  {'error_rate':<18} {result['failed'] / max(result['attempted'], 1):.4f} "
                 f"({result['failed']} failed of {result['attempted']} attempted)")
    return lines


if __name__ == "__main__":
    sys.exit(main())
