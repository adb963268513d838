"""The :class:`Registry` protocol every pluggable axis is built on.

This module imports nothing from :mod:`repro`, so each axis module can
define its own registry instance at import time without a cycle; the
instances are gathered in :mod:`repro.registry`.
"""

from __future__ import annotations

import difflib
from typing import Any, Callable, Iterator, Mapping, MutableMapping, Optional, Tuple

__all__ = ["RegistryError", "Registry", "nearest_match", "describe_by_docstring"]


def nearest_match(name: str, candidates) -> Optional[str]:
    """The closest registered name to ``name``, or ``None`` if nothing is near."""
    matches = difflib.get_close_matches(str(name), list(candidates), n=1, cutoff=0.6)
    return matches[0] if matches else None


def describe_by_docstring(fallback: str) -> Callable[[str, Any], str]:
    """A ``describe_entry`` rendering an entry as its first docstring line."""
    def describe(name: str, value: Any) -> str:
        doc = (value.__doc__ or fallback).strip()
        return doc.splitlines()[0]
    return describe


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
    """The one lookup and registration path of one pluggable axis.

    Args:
        kind: The axis name (``"schemes"``, ``"designs"``, ...); appears
            in every error message.
        entries: The mutable mapping of name → value the registry reads
            and writes: a mapping of its own, or the model zoo's data
            (``MODEL_CONFIGS``, ``TASK_FAMILIES``) that it wraps.
        describe_entry: Renders one entry as a one-line human description
            for ``repro registry list`` and docs.
        on_register: Optional validation hook run before a new entry is
            written (e.g. the scheme registry checks the instance's own
            ``name`` attribute matches).
        virtual_entries: Optional read-only extras resolvable alongside
            the backing mapping (e.g. the task *family* names next to the
            dataset tasks).  Lookups fall back to them; registration
            always writes to the backing mapping.
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

        The entry is resolvable by every lookup of this axis at once.
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
