"""Dynamic batching policies: when queued requests become a batch.

A :class:`PolicySpec` names a registered policy kind plus its knobs; the
replay loop in :mod:`repro.serving.replay` asks the policy *when* the
head of the queue should be released (:func:`release_time`), then forms
the largest batch available at that instant (FIFO, capped at
``max_batch``).  Batch size is therefore an emergent property of load
under the policy — not a grid axis.

Three kinds ship by default:

``continuous``
    Greedy/continuous batching: a batch is releasable the moment any
    request is queued; an idle accelerator takes whatever is waiting (up
    to ``max_batch``).  Minimises queueing delay, sacrifices batch
    efficiency under light load.
``max-batch``
    Release only when ``max_batch`` requests have accumulated (the
    remainder flushes once the trace ends).  Maximises batch efficiency,
    unbounded waiting under light load.
``timeout``
    Release when the batch fills *or* the oldest queued request has
    waited ``timeout_ms``, whichever comes first — the classic
    dynamic-batching compromise (TF-Serving / Triton style).

New kinds register through the :data:`POLICIES` registry
(``POLICIES.register(name, rule)``).  A policy is a pure function
``(spec, queue_head_s, fill_s, last_arrival_s) -> release_s`` — it sees
when the oldest request arrived, when the batch would fill, and when the
final trace arrival lands, and answers the earliest instant a batch may
be dispatched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro._fields import known_fields
from repro._registry import Registry, describe_by_docstring

__all__ = [
    "PolicySpec",
    "POLICIES",
    "release_time",
]


#: Policy kind → release-time rule ``(spec, queue_head_s, fill_s,
#: last_arrival_s) -> release_s``: what ``ServingSpec.policy`` /
#: ``repro serve-sim --policy`` resolve through.  ``fill_s`` is
#: ``math.inf`` when the batch can never fill (trace exhausted).
POLICIES = Registry("policies", {}, describe_by_docstring("batching-policy release rule"))


@dataclass(frozen=True)
class PolicySpec:
    """One batching policy, fully described as a frozen value.

    Attributes:
        kind: Registered policy name (``"timeout"``, ``"max-batch"``,
            ``"continuous"``).
        max_batch: Hard cap on requests per formed batch.
        timeout_ms: Longest the oldest queued request may wait before a
            partial batch is released (``timeout`` policy only).
    """

    kind: str = "timeout"
    max_batch: int = 8
    timeout_ms: float = 10.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "max_batch": self.max_batch,
            "timeout_ms": self.timeout_ms,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PolicySpec":
        """Rebuild from :meth:`to_dict` output, ignoring unknown keys."""
        return cls(**known_fields(cls, data))

    @property
    def label(self) -> str:
        if self.kind == "timeout":
            return f"timeout({self.timeout_ms:g}ms,b<={self.max_batch})"
        return f"{self.kind}(b<={self.max_batch})"


def release_time(
    spec: PolicySpec, queue_head_s: float, fill_s: float, last_arrival_s: float
) -> float:
    """Earliest instant the policy allows the current head batch out.

    Args:
        spec: The policy.
        queue_head_s: Arrival time of the oldest queued request.
        fill_s: Instant the batch reaches ``max_batch`` requests
            (``math.inf`` when the remaining trace cannot fill it).
        last_arrival_s: Arrival time of the final request in the trace
            (lets fill-based policies flush the tail).
    """
    return POLICIES.get(spec.kind)(spec, queue_head_s, fill_s, last_arrival_s)


def continuous_policy(
    spec: PolicySpec, queue_head_s: float, fill_s: float, last_arrival_s: float
) -> float:
    """Greedy: releasable as soon as anything is queued."""
    return queue_head_s


def max_batch_policy(
    spec: PolicySpec, queue_head_s: float, fill_s: float, last_arrival_s: float
) -> float:
    """Wait for a full batch; flush the remainder at end of trace."""
    if math.isinf(fill_s):
        return max(queue_head_s, last_arrival_s)
    return fill_s


def timeout_policy(
    spec: PolicySpec, queue_head_s: float, fill_s: float, last_arrival_s: float
) -> float:
    """Full batch or oldest-waiter timeout, whichever comes first."""
    return min(fill_s, queue_head_s + spec.timeout_ms / 1000.0)


POLICIES.register("continuous", continuous_policy)
POLICIES.register("max-batch", max_batch_policy)
POLICIES.register("timeout", timeout_policy)
