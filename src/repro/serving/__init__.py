"""Serving-traffic simulation over the accelerator cycle/energy models.

The package answers the north-star question the per-GEMM simulator
cannot: how does a Mokey-class accelerator behave under *live traffic* —
tail latency, goodput, queue depth, utilisation and energy-per-request
when millions of requests arrive over time and batch size is an emergent
property of load under a batching policy, not a grid axis.

Layers (each independently usable):

- :mod:`repro.serving.traces` — seeded, reproducible arrival traces
  (``poisson`` / ``bursty`` / ``diurnal``).
- :mod:`repro.serving.policies` — dynamic batching policies
  (``timeout`` / ``max-batch`` / ``continuous``).
- :mod:`repro.serving.replay` — the deterministic event loop dispatching
  formed batches onto simulated accelerators, with every distinct
  ``(workload, batch, scheme, design)`` shape memoised through the
  campaign :class:`~repro.experiments.campaign.ResultCache` (and thus
  the artifact store).
- :mod:`repro.serving.spec` — the declarative, JSON-round-trippable
  :class:`ServingSpec` with streaming, resumable, executor-fanned
  execution (``repro serve-sim`` on the CLI).

Everything here times *simulated* accelerators.  The real index-domain
software pipeline has two front doors in :mod:`repro.transformer.index_model`:
:class:`~repro.transformer.index_model.IndexDomainModelExecutor` runs
encoders and :class:`~repro.transformer.index_model.MultiStreamDecoder`
decodes any number of lockstep streams.
"""

from repro.serving.policies import PolicySpec
from repro.serving.replay import (
    BatchCost,
    BatchCostModel,
    ReplayResult,
    ServingMetrics,
    replay_trace,
)
from repro.serving.spec import (
    ServingProgress,
    ServingRecord,
    ServingResult,
    ServingSpec,
    iter_serving,
    run_serving,
)
from repro.serving.traces import TraceSpec, generate_trace

__all__ = [
    "TraceSpec",
    "generate_trace",
    "PolicySpec",
    "BatchCost",
    "BatchCostModel",
    "ServingMetrics",
    "ReplayResult",
    "replay_trace",
    "ServingSpec",
    "ServingRecord",
    "ServingProgress",
    "ServingResult",
    "iter_serving",
    "run_serving",
]
