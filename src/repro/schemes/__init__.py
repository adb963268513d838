"""Pluggable quantization schemes: numerics + accelerator cost models.

Every numerics method the evaluation sweeps — Mokey, the FP16 baseline,
GOBO, the memory-compression-only deployments, and the Table IV baselines
— is a :class:`~repro.schemes.base.QuantizationScheme` registered by name.
The accelerator simulator dispatches to the scheme object through
:data:`~repro.schemes.base.SCHEMES`; adding a method to the evaluation
is a registration, not a simulator edit.

Usage::

    from repro.schemes import SCHEMES

    SCHEMES.names()                                  # ('fp16', 'gobo', 'mokey', ...)
    scheme = SCHEMES.get("mokey")
    phase = scheme.layer_compute(workload, design)   # cycles + joules
    recon = scheme.quantize_dequantize(tensor)       # numerics round-trip
"""

from repro.schemes.base import (
    ComputePhase,
    GemmAggregates,
    QuantizationScheme,
    SCHEMES,
    SchemeStorage,
    scheme,
)
from repro.schemes.fp16 import Fp16Scheme, MokeyFullCompressionScheme, MokeyOffChipCompressionScheme
from repro.schemes.gobo import GoboScheme
from repro.schemes.mokey import MokeyScheme
from repro.schemes.baseline_adapters import BASELINE_SCHEME_NAMES, BaselineScheme

__all__ = [
    "ComputePhase",
    "GemmAggregates",
    "QuantizationScheme",
    "SCHEMES",
    "SchemeStorage",
    "scheme",
    "Fp16Scheme",
    "MokeyOffChipCompressionScheme",
    "MokeyFullCompressionScheme",
    "GoboScheme",
    "MokeyScheme",
    "BaselineScheme",
    "BASELINE_SCHEME_NAMES",
]
