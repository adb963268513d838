"""In-memory span recorder and the entry points the traced run wraps.

A span is ``[layer, start, end, parent, request]``: the layer name, its
``perf_counter`` interval, the index of the span that was open when it
started (``-1`` for none) and the id of the benchmark operation it served
(``-1`` during set-up).  Spans live in a list until the run ends and are
then written out as JSON.

:func:`instrument` wraps the public entry points of each ``repro`` layer
under every name its callers look up: a function imported by name into
another module (``index_domain_matmul_many`` into
``repro.transformer.index_execution``) is replaced there too, and methods
are replaced on their class.  Disabled, a wrapper costs one attribute test.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer → the end-to-end metric it should move, and on which workload.
#: Printed next to each per-layer value so a change can be checked
#: against the prediction it made.
LAYER_TARGETS: Dict[str, str] = {
    "core.golden": "setup_s on encode and decode",
    "core.fit": "latency_p50_s on encode; latency_p50_s (ttft) and throughput_per_s on decode",
    "core.encode": "latency_p50_s on encode",
    "core.engine": "throughput_per_s on decode; latency_p50_s on encode",
    "core.plane_cache": "peak_rss_mb on encode and decode; throughput_per_s on decode",
    "transformer": "latency_p50_s on encode",
    "service": "latency_p50_s on sweep",
    "experiments.store": "throughput_per_s on sweep",
    "accelerator": "throughput_per_s on sweep",
    "experiments.campaign": "throughput_per_s on sweep",
    "serving.replay": "throughput_per_s on sweep",
}


class SpanRecorder:
    """Collects spans while :attr:`enabled`; thread-aware parent tracking."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.enabled = False
        self.request = -1
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(
            [layer, time.perf_counter(), None, stack[-1] if stack else -1, self.request]
        )
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def call(self, layer: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a ``layer`` span (a plain call when disabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = self.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def wrap(self, layer: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return fn(*args, **kwargs)
            index = recorder.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(index)

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["layer", "start", "end", "parent", "request"], "spans": self.spans},
                handle,
            )


def _patch_function(recorder: SpanRecorder, layer: str, fn: Callable) -> None:
    """Replace ``fn`` under every name a loaded ``repro`` module binds it to."""
    wrapper = recorder.wrap(layer, fn)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)


def _patch_method(recorder: SpanRecorder, layer: str, cls: type, attr: str) -> None:
    method = cls.__dict__.get(attr)
    if method is None:
        print(f"perfbench: {cls.__name__}.{attr} not found; {layer} not traced there",
              file=sys.stderr)
        return
    setattr(cls, attr, recorder.wrap(layer, method))


def instrument(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point; call once, after the imports below."""
    from repro.accelerator.simulator import AcceleratorSimulator
    from repro.core import golden_dictionary, index_compute
    from repro.core.index_compute import VectorizedIndexDomainEngine
    from repro.core.quantizer import MokeyQuantizer
    from repro.core.tensor_dictionary import TensorDictionary
    from repro.experiments.store import ArtifactStore
    from repro.experiments.store_sqlite import SqliteStoreBackend
    from repro.serving import replay

    import repro.serving.spec  # noqa: F401 - binds replay_trace by name
    import repro.transformer.index_model  # noqa: F401 - binds the engine by name

    _patch_function(recorder, "core.golden", golden_dictionary.generate_golden_dictionary)
    _patch_method(recorder, "core.fit", MokeyQuantizer, "fit_dictionary")
    _patch_method(recorder, "core.fit", MokeyQuantizer, "fit_dictionary_from_stats")
    _patch_method(recorder, "core.encode", TensorDictionary, "encode")
    _patch_function(recorder, "core.engine", index_compute.index_domain_matmul)
    _patch_function(recorder, "core.engine", index_compute.index_domain_matmul_many)
    # The layer executor's single-GEMM path calls the engine object directly.
    _patch_method(recorder, "core.engine", VectorizedIndexDomainEngine, "matmul")
    _patch_method(recorder, "accelerator.simulate", AcceleratorSimulator, "simulate")
    _patch_function(recorder, "serving.replay", replay.replay_trace)
    for backend in (ArtifactStore, SqliteStoreBackend):
        for attr in ("put", "put_many"):
            _patch_method(recorder, "experiments.store.put", backend, attr)
        for attr in ("get", "get_fidelity", "get_measured"):
            _patch_method(recorder, "experiments.store.get", backend, attr)


def layer_times(
    spans: List[List[Any]], requests: Optional[set] = None
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds and call counts per layer.

    Self time is a span's duration minus the durations of its direct
    children.  A call is a span not nested in a span of the same layer
    (the engine's batched entry point calls its per-GEMM one).  Only
    spans whose request is in ``requests`` count, when given.
    """
    child_seconds = [0.0] * len(spans)
    for layer, start, end, parent, _request in spans:
        if parent >= 0 and end is not None:
            child_seconds[parent] += end - start
    self_seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for index, (layer, start, end, parent, request) in enumerate(spans):
        if end is None or (requests is not None and request not in requests):
            continue
        self_seconds[layer] += (end - start) - child_seconds[index]
        if parent < 0 or spans[parent][0] != layer:
            calls[layer] += 1
    return dict(self_seconds), dict(calls)
