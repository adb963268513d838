"""The one tolerant ``from_dict`` helper for the package's dataclasses.

This module imports nothing from :mod:`repro`, so every module with a
serialized dataclass can import it without a cycle.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict, Mapping

__all__ = ["known_fields"]


def known_fields(cls: type, data: Mapping[str, Any]) -> Dict[str, Any]:
    """The subset of ``data`` naming actual fields of dataclass ``cls``.

    ``cls(**known_fields(cls, data))`` rebuilds a value from its
    ``to_dict`` form while ignoring keys a newer version added.
    """
    names = {f.name for f in fields(cls)}
    return {key: value for key, value in data.items() if key in names}
