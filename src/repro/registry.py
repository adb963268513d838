"""Unified registry surface over every pluggable axis of the evaluation.

The evaluation exposes eight pluggable axes — quantization schemes,
accelerator designs, model-zoo configurations, evaluation tasks,
index-domain compute engines, artifact-store backends, arrival-trace
generators and batching policies — and each
historically exposed its own lookup idiom (``get_scheme``,
``build_design``/``DESIGN_FACTORIES``, ``MODEL_CONFIGS``,
``task_family``, ``ENGINE_BACKENDS``, ``STORE_BACKENDS``,
``TRACE_GENERATORS``, ``POLICY_KINDS``).  This module
puts one :class:`Registry` protocol in
front of all of them: ``names()`` / ``get()`` / ``describe()`` plus
entry-point-style registration, so spec validation, the CLI
(``repro registry list``) and error messages all speak the same language.

Each :class:`Registry` is a *live view* over the axis' backing mapping —
the same dict the legacy helpers read and write — so a scheme registered
through :func:`repro.schemes.register_scheme` is immediately visible
here, and a design registered through :meth:`Registry.register` is
immediately sweepable by every campaign.

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

import difflib
from typing import Any, Callable, Dict, Iterator, Mapping, MutableMapping, Optional, Tuple

__all__ = [
    "RegistryError",
    "Registry",
    "REGISTRIES",
    "registry_kinds",
    "get_registry",
    "nearest_match",
]


def nearest_match(name: str, candidates) -> Optional[str]:
    """The closest registered name to ``name``, or ``None`` if nothing is near."""
    matches = difflib.get_close_matches(str(name), list(candidates), n=1, cutoff=0.6)
    return matches[0] if matches else None


class RegistryError(ValueError):
    """An unknown name was looked up in (or clashed with) a registry.

    The message always names the registry and, when one is close enough,
    the nearest registered name — so a typo in a spec or CLI flag comes
    back as ``did you mean 'mokey'?`` instead of a bare KeyError.
    """

    def __init__(self, message: str, kind: str = "", name: str = "",
                 suggestion: Optional[str] = None) -> None:
        super().__init__(message)
        #: Which registry rejected the lookup (``"schemes"``, ``"designs"``, ...).
        self.kind = kind
        #: The name that was looked up.
        self.name = name
        #: The nearest registered name, if any.
        self.suggestion = suggestion


class Registry:
    """A uniform, live view over one pluggable axis.

    Args:
        kind: The axis name (``"schemes"``, ``"designs"``, ...); appears
            in every error message.
        entries: The backing mutable mapping of name → value.  The
            registry reads and writes *this* mapping, so legacy helpers
            layered over the same dict stay in sync automatically.
        describe_entry: Renders one entry as a one-line human description
            for ``repro registry list`` and docs.
        on_register: Optional validation hook run before a new entry is
            written (e.g. the scheme registry checks the instance's own
            ``name`` attribute matches).
        virtual_entries: Optional read-only extras resolvable alongside
            the backing mapping (e.g. the task *family* names next to the
            dataset tasks).  Lookups fall back to them; registration
            always writes to the live backing mapping.
    """

    def __init__(
        self,
        kind: str,
        entries: MutableMapping[str, Any],
        describe_entry: Optional[Callable[[str, Any], str]] = None,
        on_register: Optional[Callable[[str, Any], None]] = None,
        virtual_entries: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.kind = kind
        self._entries = entries
        self._virtual = dict(virtual_entries or {})
        self._describe_entry = describe_entry or (lambda name, value: repr(value))
        self._on_register = on_register

    # -- protocol --------------------------------------------------------

    def names(self) -> Tuple[str, ...]:
        """All registered names, sorted."""
        return tuple(sorted(set(self._entries) | set(self._virtual)))

    def __contains__(self, name: str) -> bool:
        return name in self._entries or name in self._virtual

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self.names())

    def get(self, name: str) -> Any:
        """The registered value, or :class:`RegistryError` with a suggestion."""
        try:
            return self._entries[name]
        except KeyError:
            try:
                return self._virtual[name]
            except KeyError:
                raise self._unknown(name) from None

    def describe(self, name: Optional[str] = None) -> Any:
        """One-line description of ``name``, or a name → description mapping."""
        if name is None:
            return {n: self._describe_entry(n, self.get(n)) for n in self.names()}
        return self._describe_entry(name, self.get(name))

    def register(self, name: str, value: Any, replace: bool = False) -> Any:
        """Register ``value`` under ``name``; returns ``value``.

        Registration is visible to the legacy per-axis helpers
        immediately (same backing mapping).
        """
        if not name:
            raise RegistryError(
                f"cannot register an empty name in the {self.kind!r} registry",
                kind=self.kind, name=name,
            )
        if name in self and not replace:
            raise RegistryError(
                f"{name!r} is already registered in the {self.kind!r} registry "
                f"(pass replace=True to overwrite)",
                kind=self.kind, name=name,
            )
        if self._on_register is not None:
            self._on_register(name, value)
        self._entries[name] = value
        return value

    def entry(self, name: str, replace: bool = False) -> Callable[[Any], Any]:
        """Decorator form of :meth:`register`::

            @DESIGNS.entry("my-design")
            def my_design(): ...
        """
        def decorate(value: Any) -> Any:
            self.register(name, value, replace=replace)
            return value
        return decorate

    # -- errors ----------------------------------------------------------

    def _unknown(self, name: str) -> RegistryError:
        suggestion = nearest_match(name, self.names())
        hint = f" — did you mean {suggestion!r}?" if suggestion else ""
        known = ", ".join(self.names()) or "none"
        return RegistryError(
            f"unknown name {name!r} in the {self.kind!r} registry{hint} "
            f"(registered: {known})",
            kind=self.kind, name=name, suggestion=suggestion,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Registry {self.kind!r}: {len(self)} entries>"


# --------------------------------------------------------------------------- #
# The concrete registries.
#
# Importing the backing modules here is acyclic: none of them import this
# module at import time (schemes/scenario reach back only lazily, inside
# functions, for error suggestions).
# --------------------------------------------------------------------------- #
from repro.schemes import base as _schemes_base  # noqa: E402
from repro.experiments import scenario as _scenario  # noqa: E402
from repro.transformer.model_zoo import MODEL_CONFIGS as _MODEL_CONFIGS  # noqa: E402
from repro.transformer.tasks import (  # noqa: E402
    TASK_FAMILIES as _TASK_FAMILIES,
    TASK_METRICS as _TASK_METRICS,
)
from repro.accelerator.workloads import (  # noqa: E402
    TASK_SEQUENCE_LENGTHS as _TASK_SEQUENCE_LENGTHS,
)
from repro.core.index_compute import (  # noqa: E402
    ENGINE_BACKENDS as _ENGINE_BACKENDS,
    ENGINE_DESCRIPTIONS as _ENGINE_DESCRIPTIONS,
)
from repro.experiments.store import (  # noqa: E402
    STORE_BACKENDS as _STORE_BACKENDS,
)
from repro.serving.policies import POLICY_KINDS as _POLICY_KINDS  # noqa: E402
from repro.serving.traces import TRACE_GENERATORS as _TRACE_GENERATORS  # noqa: E402


def _describe_scheme(name: str, scheme: Any) -> str:
    return scheme.describe()


def _check_scheme(name: str, scheme: Any) -> None:
    if getattr(scheme, "name", None) != name:
        raise RegistryError(
            f"scheme instance names itself {getattr(scheme, 'name', None)!r} "
            f"but is being registered as {name!r} in the 'schemes' registry",
            kind="schemes", name=name,
        )


def _describe_design(name: str, factory: Any) -> str:
    return factory().summary()


def _describe_model(name: str, config: Any) -> str:
    return config.summary()


def _describe_task(name: str, family: str) -> str:
    metric = _TASK_METRICS[family]
    if name == family:
        return f"task family (metric: {metric})"
    seq = _TASK_SEQUENCE_LENGTHS.get(name)
    default = f", default seq {seq}" if seq is not None else ""
    return f"dataset task — family {family!r} (metric: {metric}{default})"


def _check_task(name: str, family: str) -> None:
    if family not in _TASK_METRICS:
        raise RegistryError(
            f"task {name!r} must map to a family in "
            f"{sorted(_TASK_METRICS)}, got {family!r}",
            kind="tasks", name=name,
        )


SCHEMES = Registry(
    "schemes", _schemes_base._REGISTRY, _describe_scheme, on_register=_check_scheme
)
DESIGNS = Registry("designs", _scenario.DESIGN_FACTORIES, _describe_design)
MODELS = Registry("models", _MODEL_CONFIGS, _describe_model)
#: Live view over ``TASK_FAMILIES`` (dataset task → family), so a task
#: registered here is immediately resolvable by ``task_family`` — and one
#: added there is immediately validatable here.  The family names
#: themselves ride along as read-only virtual entries (the task helpers
#: accept them directly).
TASKS = Registry(
    "tasks",
    _TASK_FAMILIES,
    _describe_task,
    on_register=_check_task,
    virtual_entries={family: family for family in _TASK_METRICS},
)


def _describe_engine(name: str, cls: Any) -> str:
    # Static descriptions on purpose: describing the torch backend must
    # not import torch.  Unknown (user-registered) backends fall back to
    # the first docstring line.
    described = _ENGINE_DESCRIPTIONS.get(name)
    if described is None:
        doc = (cls.__doc__ or "index-domain engine backend").strip()
        described = doc.splitlines()[0]
    return described


#: Live view over ``ENGINE_BACKENDS``: the index-domain compute backends
#: every ``engine=`` switch (``index_domain_matmul``, the encoder/model
#: executors, measured campaigns) resolves through.
ENGINES = Registry("engines", _ENGINE_BACKENDS, _describe_engine)

def _describe_store(name: str, backend: Any) -> str:
    doc = (backend.__doc__ or "artifact-store backend").strip()
    return doc.splitlines()[0]


#: Live view over ``STORE_BACKENDS``: the artifact-store backends
#: ``open_store``/``--store-backend`` resolve through (JSONL default,
#: indexed WAL-mode SQLite for big grids and concurrent writers).
STORES = Registry("stores", _STORE_BACKENDS, _describe_store)

def _describe_by_docstring(fallback: str):
    def describe(name: str, value: Any) -> str:
        doc = (value.__doc__ or fallback).strip()
        return doc.splitlines()[0]
    return describe


#: Live view over ``TRACE_GENERATORS``: the seeded request-arrival trace
#: kinds ``ServingSpec.trace`` / ``repro serve-sim --trace`` resolve
#: through.
TRACES = Registry(
    "traces", _TRACE_GENERATORS, _describe_by_docstring("arrival-trace generator")
)

#: Live view over ``POLICY_KINDS``: the dynamic batching policies
#: ``ServingSpec.policy`` / ``repro serve-sim --policy`` resolve through.
POLICIES = Registry(
    "policies", _POLICY_KINDS, _describe_by_docstring("batching-policy release rule")
)

#: The registry of registries: every pluggable axis by kind.
REGISTRIES: Dict[str, Registry] = {
    "schemes": SCHEMES,
    "designs": DESIGNS,
    "models": MODELS,
    "tasks": TASKS,
    "engines": ENGINES,
    "stores": STORES,
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
