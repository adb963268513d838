"""Repository benchmark: three closed-loop workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload encode --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --sets 10 --seconds 14            # steadiness report
    python3 perfbench/run.py --sets 5 --workload decode --seconds 14

A run sets the workload up ``SETUPS`` times, each in a fresh interpreter
(so the plane cache, fit memo and Golden Dictionary start empty), and
reports the median as ``setup_s``.  The last of those interpreters goes on
to measure whole blocks of operations for ``--seconds``, checks every
output, and prints a report followed by one JSON line.  With ``--trace 0``
that line carries the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` its per-layer metrics, from a run whose odd blocks are
traced.  BLAS runs single-threaded in every interpreter.

``--sets N`` is the steadiness report: N runs per workload with seeds
1..N, then each end-to-end metric's median, quartiles and spread
((Q3 - Q1) / median) next to its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUPS = 2
#: A whole run (every set-up and the measured window) must end by then.
RUN_BUDGET_S = 170.0
BLAS_THREADS = "1"


class RunError(RuntimeError):
    """A child interpreter failed, hung or printed no result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    env["TMPDIR"] = os.path.join(OUT, "tmp")  # keep temporary files in the checkout
    return env


def run_child(args: argparse.Namespace, mode: str, deadline: float):
    """Start one child; returns ``(setup seconds, report lines, result)``.

    The set-up sample runs from just before the interpreter is started to
    the child's ``PB-READY`` line.  The child gets its own session so that
    a hung run is killed together with any worker processes it spawned.
    """
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--out", OUT,
    ] + (["--tiny"] if args.tiny else [])
    lines: "queue.Queue[Optional[str]]" = queue.Queue()
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )

    def pump() -> None:
        for line in proc.stdout:
            lines.put(line.rstrip("\n"))
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    setup = None
    report: List[str] = []
    result = None
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RunError(
                    f"{args.workload} {mode} run exceeded its {RUN_BUDGET_S:.0f}s budget"
                )
            try:
                line = lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                break
            if line == "PB-READY":
                setup = time.perf_counter() - started
            elif line.startswith("PB-RESULT "):
                result = json.loads(line[len("PB-RESULT "):])
            else:
                report.append(line)
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        reader.join(5.0)
    if code != 0 or setup is None or (mode == "measure" and result is None):
        raise RunError(f"{args.workload} {mode} child exited {code} without a result")
    return setup, report, result


def single_run(args: argparse.Namespace) -> int:
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        # setup_s is not reported by a traced run, so it sets up once.
        probes = 0 if args.trace else SETUPS - 1
        samples = [run_child(args, "setup", deadline)[0] for _ in range(probes)]
        setup, report, result = run_child(args, "measure", deadline)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    samples.append(setup)
    print("\n".join(report))
    print(f"  setup_s            {statistics.median(samples):.4f} s (median of "
          f"{', '.join(f'{s:.3f}' for s in samples)})")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def steadiness(args: argparse.Namespace, bench: Dict[str, Any]) -> int:
    """Run ``--sets`` seeds per workload; print spread next to each bound."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    status = 0
    for workload in workloads:
        values: Dict[str, List[float]] = {name: [] for name in bounds}
        failures = 0
        for seed in range(1, args.sets + 1):
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            if args.tiny:
                command.append("--tiny")
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed\n{done.stderr}", file=sys.stderr)
                failures += 1
                continue
            result = json.loads(lines[-1])
            failures += 0 if result["correct"] else 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={result['metrics'][name]['value']:.4g}" for name in bounds), flush=True)
        print(f"\n{workload}: {args.sets} seeds, {failures} failed or incorrect")
        print(f"  {'metric':<18} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} "
              f"{'bound':>6}  verdict")
        for name, bound in bounds.items():
            if len(values[name]) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median if median else float("inf")
            verdict = ("steady" if spread <= bound / 3 else
                       "within bound" if spread <= bound else "TOO NOISY")
            if name == "setup_s" and verdict == "TOO NOISY":
                verdict = "noisy (spread not gated)"
            elif verdict == "TOO NOISY":
                status = 1
            print(f"  {name:<18} {median:10.4g} {q1:10.4g} {q3:10.4g} {spread:8.2%} "
                  f"{bound:6.0%}  {verdict}")
        status = status or (1 if failures else 0)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=0,
                        help="steadiness report: runs per workload (seeds 1..N)")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny model and golden dictionary (self-tests only)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {os.path.join(ROOT, 'src')}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.sets:
        return steadiness(args, bench)
    if args.workload is None:
        parser.error("--workload is required unless --sets is given")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
