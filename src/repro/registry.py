"""Every pluggable axis of the evaluation, by kind.

The evaluation has seven pluggable axes — quantization schemes,
accelerator designs, model-zoo configurations, evaluation tasks,
index-domain compute engines, arrival-trace generators and batching
policies.  Each is one :class:`Registry`,
defined in the module that owns its entries (``SCHEMES`` in
:mod:`repro.schemes.base`, ``DESIGNS`` in
:mod:`repro.experiments.scenario`, ...), with one protocol:
``names()`` / ``get()`` / ``describe()`` plus ``register()``, so spec
validation, the CLI (``repro registry list``) and error messages all
speak the same language.  This module gathers them by kind.

Usage::

    from repro.registry import get_registry, registry_kinds

    designs = get_registry("designs")
    designs.names()                 # ('gobo', 'mokey', 'tensor-cores', ...)
    designs.get("mokey")            # the design factory
    designs.describe("mokey")       # one-line human description
    designs.get("mokeyy")           # RegistryError: ... did you mean 'mokey'?

    @get_registry("designs").entry("my-design")
    def my_design():
        return replace(mokey_design(), num_units=2048)
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro._registry import Registry, RegistryError, nearest_match
from repro.core.index_compute import ENGINES
from repro.experiments.scenario import DESIGNS
from repro.schemes.base import SCHEMES
from repro.serving.policies import POLICIES
from repro.serving.traces import TRACES
from repro.transformer.model_zoo import MODELS
from repro.transformer.tasks import TASKS

__all__ = [
    "RegistryError",
    "Registry",
    "REGISTRIES",
    "registry_kinds",
    "get_registry",
    "nearest_match",
]

#: The registry of registries: every pluggable axis by kind.
REGISTRIES: Dict[str, Registry] = {
    "schemes": SCHEMES,
    "designs": DESIGNS,
    "models": MODELS,
    "tasks": TASKS,
    "engines": ENGINES,
    "traces": TRACES,
    "policies": POLICIES,
}


def registry_kinds() -> Tuple[str, ...]:
    """All registry kinds, sorted."""
    return tuple(sorted(REGISTRIES))


def get_registry(kind: str) -> Registry:
    """The registry for one axis kind; suggests the nearest kind when unknown."""
    try:
        return REGISTRIES[kind]
    except KeyError:
        suggestion = nearest_match(kind, REGISTRIES)
        hint = f" — did you mean {suggestion!r}?" if suggestion else ""
        raise RegistryError(
            f"unknown registry kind {kind!r}{hint} "
            f"(kinds: {', '.join(registry_kinds())})",
            kind=kind, name=kind, suggestion=suggestion,
        ) from None
