"""The benchmark's three closed-loop workloads, one client each.

Each workload sets itself up (imports, Golden Dictionary, model or daemon,
one untimed warm-up operation), then serves operations in *blocks*.  A
block holds every operation shape of the workload once, in a seeded
order, so every seed runs the same mix and a run always measures whole
blocks.  Inputs come from ``numpy`` generators seeded with ``(seed,
block, position)``; the program sees only the generated arrays and specs.

* ``encode`` — one long-lived BERT-Base-width ``IndexDomainModelExecutor``
  (one layer) serving fresh ``(1, seq, 768)`` requests.  Every GEMM input
  is new, so the quantizer's fit memo never hits; weights come from the
  executor's cache after the warm-up.
* ``decode`` — a gpt2-small-width KV-cache decoder (one layer, 4 lockstep
  streams) behind one shared ``MokeyQuantizer``.  Blocks alternate a
  generation-heavy round (short prompt, 8 tokens) and a prompt-heavy
  round (long prompt, 1 token).  Each round builds a fresh
  ``MultiStreamDecoder`` of the same model and feeds it fresh inputs.
* ``sweep`` — the campaign service end to end: an in-process daemon on an
  ephemeral port, a ``Coordinator`` with a SQLite store and 2 workers,
  one ``ServiceClient`` submitting analytic grids of three sizes (half of
  each grid already in the store) and a serving replay.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Largest accepted ``output_rms_error`` against the FP oracle.  Today's
#: figures are ~0.09 (encode) and ~0.10 (decode); an engine whose values
#: are off by half reads ~0.6.  The tiny configuration reads ~0.003.
RMS_BOUND = 0.15
TINY_RMS_BOUND = 0.01
#: Seed of the model weights: one deployed model, whatever the input seed.
MODEL_SEED = 0
#: Block index reserved for the warm-up operation's inputs.
WARMUP_BLOCK = 1_000_000
#: A sweep job that has not streamed its records by then is cancelled.
JOB_DEADLINE_S = 60.0
#: An in-process operation slower than this counts as timed out.
OP_DEADLINE_S = 60.0
#: Span request ids of the sweep's in-process replay start here.
REPLAY_REQUEST = 10_000_000


@dataclass
class Op:
    """One completed operation as the benchmark's own clock saw it."""

    kind: str
    seconds: float
    items: int
    error: Optional[str] = None
    #: Digest of the exact integer operation counts (or records) it produced.
    digest: str = ""
    #: Digest of its output values (for the tracing on/off identity check).
    values: str = ""
    #: Counter deltas read from the program around the operation.
    counters: Dict[str, float] = field(default_factory=dict)
    block: int = 0
    traced: bool = False


def stats_digest(stats: Any) -> str:
    counts = (
        stats.gaussian_pairs,
        stats.outlier_pairs,
        stats.index_additions,
        stats.counter_updates,
        stats.post_processing_macs,
    )
    return hashlib.sha1(repr(counts).encode()).hexdigest()[:16]


def _input_rng(seed: int, block: int, position: int) -> np.random.Generator:
    return np.random.default_rng([seed, block, position])


def _tiny_config(name: str):
    from repro.transformer.config import TransformerConfig

    return TransformerConfig(
        name=name,
        num_layers=1,
        hidden_size=32,
        num_heads=4,
        intermediate_size=64,
        vocab_size=128,
        max_position_embeddings=64,
    )


def _quantizer(tiny: bool):
    """The default quantizer (it generates the Golden Dictionary itself).

    The tiny configuration, used by the self-tests, passes a reduced-sample
    dictionary instead.
    """
    from repro.core.golden_dictionary import generate_golden_dictionary
    from repro.core.quantizer import MokeyQuantizer

    if tiny:
        return MokeyQuantizer(generate_golden_dictionary(num_samples=8000, num_repeats=2, seed=7))
    return MokeyQuantizer()


def _core_counters(quantizer: Any) -> Dict[str, float]:
    """The quantizer's fit-memo and the plane cache's counters right now."""
    from repro.core.index_compute import get_plane_cache

    cache = get_plane_cache()
    stats = cache.stats() if cache is not None else None
    return {
        "memo_hits": quantizer.fit_memo_hits,
        "memo_misses": quantizer.fit_memo_misses,
        "plane_hits": 0 if stats is None else stats.hits + stats.attached_hits,
        "plane_misses": 0 if stats is None else stats.misses,
        "plane_bytes": 0 if stats is None else stats.bytes_cached,
    }


def _counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    out = {key: after[key] - before[key] for key in before}
    out["plane_bytes"] = after["plane_bytes"]  # a gauge, not a counter
    return out


def _check_numerics(rms: float, finite: bool, tiny: bool) -> Optional[str]:
    bound = TINY_RMS_BOUND if tiny else RMS_BOUND
    if not finite or not np.isfinite(rms):
        return "non-finite output"
    if rms >= bound:
        return f"output_rms_error {rms:.4f} >= bound {bound}"
    return None


class EncodeWorkload:
    """Fresh encoder requests against one long-lived model executor."""

    name = "encode"
    latency_name = "latency_p50_s"
    rate_name = "tokens_per_s"
    item = "prompt tokens"
    latency_kinds = ("request",)
    throughput_kinds = ("request",)
    rate_over_ops = False

    def __init__(self, seed: int, tiny: bool, recorder: Any, scratch: str) -> None:
        self.seed = seed
        self.tiny = tiny
        self.recorder = recorder
        self.lengths = (4, 8, 16) if tiny else (32, 64, 128)

    def setup(self) -> None:
        from repro.transformer import IndexDomainModelExecutor

        self.quantizer = _quantizer(self.tiny)
        self.executor = IndexDomainModelExecutor(
            _tiny_config("tiny-encoder") if self.tiny else "bert-base",
            num_layers=1,
            quantizer=self.quantizer,
            seed=MODEL_SEED,
        )
        self.run(("request", self.lengths[0], WARMUP_BLOCK, 0))

    def block(self, index: int) -> List[Tuple[Any, ...]]:
        order = np.random.default_rng([self.seed, index]).permutation(len(self.lengths))
        return [("request", self.lengths[i], index, pos) for pos, i in enumerate(order)]

    def run(self, spec: Tuple[Any, ...]) -> Op:
        kind, seq, block, position = spec
        hidden = self.executor.config.hidden_size
        states = _input_rng(self.seed, block, position).normal(
            0.0, 1.0, size=(1, seq, hidden)
        ).astype(np.float32)
        before = _core_counters(self.quantizer)
        hits_before = self.executor.weight_cache_hits
        started = time.perf_counter()
        measurement = self.recorder.call(
            "transformer.executor", self.executor.forward, states
        )
        seconds = time.perf_counter() - started
        counters = _counter_delta(before, _core_counters(self.quantizer))
        counters["weight_cache_hits"] = self.executor.weight_cache_hits - hits_before
        counters["pairs"] = measurement.stats.total_pairs
        counters["outlier_pairs"] = measurement.stats.outlier_pairs
        rms = float(measurement.output_rms_error)
        error = _check_numerics(rms, True, self.tiny)
        if error is None and seconds > OP_DEADLINE_S:
            error = f"timed out ({seconds:.1f}s > {OP_DEADLINE_S}s)"
        layer_rms = repr([layer.output_rms_error for layer in measurement.layers])
        return Op(
            kind=kind,
            seconds=seconds,
            items=seq,
            error=error,
            digest=stats_digest(measurement.stats),
            values=hashlib.sha1(layer_rms.encode()).hexdigest()[:16],
            counters=counters,
        )

    def finish(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


class DecodeWorkload:
    """Alternating generation-heavy and prompt-heavy multi-stream rounds."""

    name = "decode"
    latency_name = "ttft_s"
    rate_name = "tokens_per_s"
    item = "generated tokens"
    streams = 4
    latency_kinds = ("prompt",)  # time to the first (only) token
    throughput_kinds = ("gen",)
    #: Generated tokens over the wall time of the generation rounds alone.
    rate_over_ops = True

    def __init__(self, seed: int, tiny: bool, recorder: Any, scratch: str) -> None:
        self.seed = seed
        self.tiny = tiny
        self.recorder = recorder
        # (kind, prompt tokens, generated tokens per stream)
        self.shapes = (("gen", 4, 8), ("prompt", 32, 1))

    def setup(self) -> None:
        from repro.transformer.index_model import GPT_DECODER_CONFIG

        self.config = _tiny_config("tiny-decoder") if self.tiny else GPT_DECODER_CONFIG
        self.quantizer = _quantizer(self.tiny)
        # Warm-up: one small round of the same model, so the first measured
        # round finds the weights where every later one does.
        self.run(("warmup", 2, 1, WARMUP_BLOCK, 0), streams=1)

    def block(self, index: int) -> List[Tuple[Any, ...]]:
        return [(kind, prompt, tokens, index, pos)
                for pos, (kind, prompt, tokens) in enumerate(self.shapes)]

    def run(self, spec: Tuple[Any, ...], streams: Optional[int] = None) -> Op:
        from repro.transformer.index_model import MultiStreamDecoder

        kind, prompt, tokens, block, position = spec
        streams = streams or self.streams
        input_seed = int(_input_rng(self.seed, block, position).integers(1, 2**31))
        before = _core_counters(self.quantizer)
        started = time.perf_counter()

        def round_trip():
            decoder = MultiStreamDecoder(
                model=self.config,
                num_streams=streams,
                num_layers=1,
                quantizer=self.quantizer,
                seed=MODEL_SEED,
            )
            # The blocks were drawn from MODEL_SEED above; the streams'
            # inputs are drawn from ``decoder.seed`` when ``run`` starts.
            decoder.seed = input_seed
            return decoder, decoder.run(prompt_length=prompt, decode_tokens=tokens)

        decoder, measurement = self.recorder.call("transformer.executor", round_trip)
        seconds = time.perf_counter() - started
        counters = _counter_delta(before, _core_counters(self.quantizer))
        counters["weight_cache_hits"] = decoder.executor.weight_cache_hits
        counters["pairs"] = measurement.stats.total_pairs
        counters["outlier_pairs"] = measurement.stats.outlier_pairs
        outputs = measurement.outputs or []
        finite = all(np.isfinite(out).all() for out in outputs)
        error = _check_numerics(float(measurement.output_rms_error), finite, self.tiny)
        if error is None and seconds > OP_DEADLINE_S:
            error = f"timed out ({seconds:.1f}s > {OP_DEADLINE_S}s)"
        values = hashlib.sha1()
        for out in outputs:
            values.update(np.ascontiguousarray(out).tobytes())
        return Op(
            kind=kind,
            seconds=seconds,
            items=streams * tokens,
            error=error,
            digest=stats_digest(measurement.stats),
            values=values.hexdigest()[:16],
            counters=counters,
        )

    def finish(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


KIB = 1024
#: Buffer size shared by every sweep grid; the warm-up job stores it.
BASE_BUFFER = 512 * KIB
#: Grid size classes; each job adds a fresh buffer size, doubling the grid.
GRID_CLASSES = {
    "small": {"schemes": ["fp16", "mokey"], "batch_sizes": [1, 2], "sequence_lengths": [32]},
    "medium": {"schemes": ["fp16", "mokey"], "batch_sizes": [1, 2, 4],
               "sequence_lengths": [32, 64]},
    "large": {"schemes": ["fp16", "mokey", "gobo"], "batch_sizes": [1, 2, 4, 8],
              "sequence_lengths": [32, 64]},
}


def _campaign_dict(name: str, axes: Dict[str, Any], buffers: List[int]) -> Dict[str, Any]:
    return {
        "name": name,
        "axes": {"models": ["bert-base"], "tasks": ["mnli"], "designs": ["mokey"],
                 **axes, "buffer_bytes": buffers},
    }


def _serving_dict(name: str, trace_seed: int) -> Dict[str, Any]:
    return {
        "name": name,
        "model": "bert-base",
        "task": "mnli",
        "schemes": ["fp16", "mokey"],
        "designs": ["mokey"],
        "buffer_bytes": BASE_BUFFER,
        "trace": {"kind": "poisson", "rate_rps": 200.0, "num_requests": 100,
                  "seed": trace_seed},
        "policy": {"kind": "timeout", "max_batch": 4, "timeout_ms": 5.0},
    }


class SweepWorkload:
    """Campaign-service jobs, each submitted, awaited and streamed back."""

    name = "sweep"
    latency_name = "latency_p50_s"
    rate_name = "scenarios_per_s"
    item = "scenario records"
    latency_kinds = ("small", "medium", "large", "serving")
    throughput_kinds = latency_kinds
    rate_over_ops = False

    def __init__(self, seed: int, tiny: bool, recorder: Any, scratch: str) -> None:
        self.seed = seed
        self.tiny = tiny
        self.recorder = recorder
        self.scratch = scratch
        self.kinds = ("small", "serving") if tiny else ("small", "medium", "large", "serving")
        #: (kind, spec dict, streamed rows) of every submitted job, in order.
        self.jobs: List[Tuple[str, Dict[str, Any], List[Dict[str, Any]]]] = []
        self._buffers: set = set()
        self.root: Optional[str] = None

    def setup(self) -> None:
        from repro.service import Coordinator, ServiceClient, make_server

        os.makedirs(self.scratch, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="sweep-", dir=self.scratch)
        self.coordinator = Coordinator(
            os.path.join(self.root, "service"), store_backend="sqlite", default_workers=2
        )
        self.server = make_server("127.0.0.1", 0, self.coordinator)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.client = ServiceClient(f"http://127.0.0.1:{self.server.server_address[1]}")
        union = {
            "schemes": ["fp16", "mokey", "gobo"],
            "batch_sizes": [1, 2, 4, 8],
            "sequence_lengths": [32, 64],
        }
        self.run(("warmup", _campaign_dict("warmup", union, [BASE_BUFFER])))

    def block(self, index: int) -> List[Tuple[Any, ...]]:
        rng = np.random.default_rng([self.seed, index])
        specs = []
        for position in rng.permutation(len(self.kinds)):
            kind = self.kinds[position]
            name = f"{kind}-{index}"
            if kind == "serving":
                specs.append((kind, _serving_dict(name, int(rng.integers(0, 2**31)))))
                continue
            fresh = BASE_BUFFER
            while fresh == BASE_BUFFER or fresh in self._buffers:
                fresh = int(rng.integers(16, 4096)) * 4 * KIB
            self._buffers.add(fresh)
            specs.append((kind, _campaign_dict(name, GRID_CLASSES[kind], [BASE_BUFFER, fresh])))
        return specs

    @staticmethod
    def expected_rows(spec: Dict[str, Any]) -> int:
        from repro.experiments import CampaignSpec
        from repro.serving import ServingSpec

        if "trace" in spec:
            return len(ServingSpec.from_dict(spec).combos())
        return len(CampaignSpec.from_dict(spec).scenarios())

    def run(self, spec: Tuple[Any, ...]) -> Op:
        from repro.service import TERMINAL_STATES

        kind, payload = spec
        expected = self.expected_rows(payload)
        started = time.perf_counter()
        job_id = self.client.submit(payload)
        error = None
        while True:
            status = self.client.status(job_id)
            if status["state"] in TERMINAL_STATES:
                break
            if time.perf_counter() - started > JOB_DEADLINE_S:
                self.client.cancel(job_id)
                error = f"job {job_id} missed its {JOB_DEADLINE_S:.0f}s deadline; cancelled"
                break
            time.sleep(0.02)
        streamed = time.perf_counter()
        rows = list(self.client.results(job_id))
        seconds = time.perf_counter() - started
        self.jobs.append((kind, payload, rows))
        if error is None and status["state"] != "completed":
            error = f"job {job_id} ended {status['state']}: {status['error']}"
        if error is None and len(rows) != expected:
            error = f"job {job_id} streamed {len(rows)} records, grid has {expected}"
        progress = [shard["progress"] or {} for shard in status["shards"]]
        counters = {
            "queue_s": (status["started"] or status["created"]) - status["created"],
            "run_s": (status["finished"] or status["created"])
            - (status["started"] or status["created"]),
            "stream_s": seconds - (streamed - started),
            "restarts": status["restarts"],
            "cached": sum(p.get("cached", 0) for p in progress),
            "completed": sum(p.get("completed", 0) for p in progress),
            "simulated": sum(p.get("simulated", 0) for p in progress),
            "campaign": 0 if kind == "serving" else 1,
        }
        digest = hashlib.sha1(
            repr(sorted((row.get("key"), row.get("digest")) for row in rows)).encode()
        ).hexdigest()[:16]
        return Op(kind=kind, seconds=seconds, items=len(rows), error=error,
                  digest=digest, values=digest, counters=counters)

    def finish(self) -> List[str]:
        """Replay every job in-process into a fresh store: the oracle.

        Runs after the timed window.  In a traced run its spans give the
        campaign, store, simulator and serving-replay layers.
        """
        from repro.experiments import CampaignSpec, open_store, run_spec, store_digest
        from repro.serving import ServingSpec, run_serving

        oracle_root = os.path.join(self.root, "oracle")
        policy = dict(store=oracle_root, store_backend="sqlite", resume=True,
                      executor="serial", max_workers=None)
        errors = []
        for index, (kind, payload, rows) in enumerate(self.jobs):
            self.recorder.request = REPLAY_REQUEST + index
            if "trace" in payload:
                spec = ServingSpec.from_dict(payload).with_execution(**policy)
                result = self.recorder.call("experiments.campaign", run_serving, spec)
                want = [_without_simulated(r.to_row()) for r in result.records]
                got = [_without_simulated(row) for row in rows]
                if want != got:
                    errors.append(f"serving job {index} rows differ from the in-process replay")
            else:
                spec = CampaignSpec.from_dict(payload).with_execution(**policy)
                self.recorder.call("experiments.campaign", run_spec, spec)
        service = store_digest(open_store(os.path.join(self.root, "service"), backend="sqlite"))
        oracle = store_digest(open_store(oracle_root, backend="sqlite"))
        if service != oracle:
            errors.append(
                f"service store digest differs from the in-process oracle "
                f"({len(service)} vs {len(oracle)} keys)"
            )
        self.replayed = len(self.jobs)
        return errors

    def close(self) -> None:
        if self.root is None:
            return
        self.server.shutdown()
        self.thread.join(5.0)
        self.coordinator.drain()
        self.server.server_close()
        shutil.rmtree(self.root, ignore_errors=True)
        self.root = None



def _without_simulated(row: Dict[str, Any]) -> Dict[str, Any]:
    # ``simulated`` counts what this run's cache lacked, not what it computed.
    return {key: value for key, value in row.items() if key != "simulated"}


WORKLOADS = {"encode": EncodeWorkload, "decode": DecodeWorkload, "sweep": SweepWorkload}


def make_workload(name: str, seed: int, tiny: bool, recorder: Any, scratch: str):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})")
    return WORKLOADS[name](seed, tiny, recorder, scratch)
