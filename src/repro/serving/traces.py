"""Seeded, reproducible request-arrival traces.

A :class:`TraceSpec` names a registered generator kind plus its
parameters and an explicit seed; :func:`generate_trace` expands it into a
sorted float64 array of arrival times (seconds from trace start).  Every
generator draws exclusively from ``numpy.random.default_rng(seed)``, so
the same spec produces a bit-identical trace in every process — the
foundation of the serving layer's serial/thread/process determinism.

Three kinds ship by default:

``poisson``
    Memoryless arrivals at a constant mean rate — the classic open-loop
    serving model.
``bursty``
    A two-state Markov-modulated Poisson process (MMPP-2): the rate
    alternates between a calm and a burst state with exponentially
    distributed dwell times.  Same mean request count, much heavier
    queueing tails.
``diurnal``
    A non-homogeneous Poisson process whose rate follows a sinusoidal
    day-curve, sampled by Lewis–Shedler thinning.  Models the
    peak/trough load cycle of a user-facing service.

New kinds register through the :data:`TRACES` registry
(``TRACES.register(name, generator)``) and become immediately usable from
``ServingSpec`` and ``repro serve-sim --trace``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

import numpy as np

from repro._fields import known_fields
from repro._registry import Registry, describe_by_docstring

__all__ = [
    "TraceSpec",
    "TRACES",
    "generate_trace",
]


#: Trace kind → generator callable ``(spec: TraceSpec) -> np.ndarray`` of
#: sorted arrival times in seconds: what ``ServingSpec.trace`` /
#: ``repro serve-sim --trace`` resolve through.
TRACES = Registry("traces", {}, describe_by_docstring("arrival-trace generator"))


@dataclass(frozen=True)
class TraceSpec:
    """One reproducible arrival trace, fully described as a frozen value.

    Attributes:
        kind: Registered generator name (``"poisson"``, ``"bursty"``,
            ``"diurnal"``, ...).
        rate_rps: Mean arrival rate in requests per second.
        num_requests: Trace length in requests.
        seed: PRNG seed; the *only* source of randomness, so equal specs
            generate bit-identical traces in any process.
        params: Generator-specific knobs as a sorted ``(name, value)``
            tuple (kept hashable); see each generator's docstring.
    """

    kind: str = "poisson"
    rate_rps: float = 100.0
    num_requests: int = 1000
    seed: int = 0
    params: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        # Accept a mapping (JSON object, kwargs dict) for params and
        # normalise to a sorted tuple so equal specs hash equally and
        # from_dict(to_dict()) round-trips to equality.
        raw = self.params
        try:
            items = raw.items() if isinstance(raw, Mapping) else (tuple(p) for p in raw)
            params = tuple(sorted((str(name), float(value)) for name, value in items))
        except (TypeError, ValueError):
            raise ValueError(
                f"trace.params must map names to numbers, got {raw!r}"
            ) from None
        object.__setattr__(self, "params", params)

    def param(self, name: str, default: float) -> float:
        """The named generator parameter, or ``default``."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def params_dict(self) -> Dict[str, float]:
        return dict(self.params)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "rate_rps": self.rate_rps,
            "num_requests": self.num_requests,
            "seed": self.seed,
            "params": self.params_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceSpec":
        """Rebuild from :meth:`to_dict` output, ignoring unknown keys."""
        return cls(**known_fields(cls, data))

    @property
    def label(self) -> str:
        extras = "".join(f",{k}={v:g}" for k, v in self.params)
        return f"{self.kind}({self.rate_rps:g}rps,n={self.num_requests},seed={self.seed}{extras})"


def generate_trace(spec: TraceSpec) -> np.ndarray:
    """Expand ``spec`` into a sorted float64 array of arrival seconds.

    Deterministic: randomness comes only from
    ``numpy.random.default_rng(spec.seed)``, so serial / thread / process
    replays of the same spec see the same requests at the same instants.
    """
    generator = TRACES.get(spec.kind)
    if spec.num_requests <= 0:
        raise ValueError(f"num_requests must be positive, got {spec.num_requests!r}")
    if not spec.rate_rps > 0:
        raise ValueError(f"rate_rps must be positive, got {spec.rate_rps!r}")
    arrivals = np.asarray(generator(spec), dtype=np.float64)
    if arrivals.shape != (spec.num_requests,):
        raise ValueError(
            f"trace generator {spec.kind!r} returned {arrivals.shape}, "
            f"expected ({spec.num_requests},)"
        )
    return arrivals


def poisson_trace(spec: TraceSpec) -> np.ndarray:
    """Homogeneous Poisson arrivals: exponential inter-arrival times."""
    rng = np.random.default_rng(spec.seed)
    gaps = rng.exponential(1.0 / spec.rate_rps, spec.num_requests)
    return np.cumsum(gaps)


def bursty_trace(spec: TraceSpec) -> np.ndarray:
    """Two-state MMPP: calm/burst rates with exponential dwell times.

    Params: ``burst_factor`` (burst-state rate multiplier, default 4),
    ``calm_factor`` (calm-state rate multiplier, default 0.5) and
    ``mean_dwell_s`` (mean state-dwell seconds, default 1).
    """
    rng = np.random.default_rng(spec.seed)
    rates = (
        spec.rate_rps * spec.param("calm_factor", 0.5),
        spec.rate_rps * spec.param("burst_factor", 4.0),
    )
    mean_dwell = spec.param("mean_dwell_s", 1.0)
    if min(rates) <= 0 or mean_dwell <= 0:
        raise ValueError("bursty trace needs positive rates and mean_dwell_s")
    arrivals = np.empty(spec.num_requests, dtype=np.float64)
    count = 0
    now = 0.0
    state = 0
    while count < spec.num_requests:
        dwell_end = now + rng.exponential(mean_dwell)
        rate = rates[state]
        t = now
        while count < spec.num_requests:
            t += rng.exponential(1.0 / rate)
            if t >= dwell_end:
                break
            arrivals[count] = t
            count += 1
        now = dwell_end
        state = 1 - state
    return arrivals


def diurnal_trace(spec: TraceSpec) -> np.ndarray:
    """Sinusoidal-rate arrivals via Lewis–Shedler thinning.

    The instantaneous rate is
    ``rate_rps * (1 + amplitude * sin(2*pi*t / period_s))``.
    Params: ``amplitude`` (0..1, default 0.8) and ``period_s`` (cycle
    length in seconds, default 60).
    """
    rng = np.random.default_rng(spec.seed)
    amplitude = spec.param("amplitude", 0.8)
    period = spec.param("period_s", 60.0)
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError(f"diurnal amplitude must be in [0, 1], got {amplitude!r}")
    if period <= 0:
        raise ValueError(f"diurnal period_s must be positive, got {period!r}")
    rate_max = spec.rate_rps * (1.0 + amplitude)
    omega = 2.0 * math.pi / period
    arrivals = np.empty(spec.num_requests, dtype=np.float64)
    count = 0
    t = 0.0
    while count < spec.num_requests:
        t += rng.exponential(1.0 / rate_max)
        accept = rng.random()
        rate_t = spec.rate_rps * (1.0 + amplitude * math.sin(omega * t))
        if accept * rate_max <= rate_t:
            arrivals[count] = t
            count += 1
    return arrivals


TRACES.register("poisson", poisson_trace)
TRACES.register("bursty", bursty_trace)
TRACES.register("diurnal", diurnal_trace)
