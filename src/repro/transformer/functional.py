"""Elementwise and normalisation primitives used by the transformer.

All functions are pure NumPy, forward-only, and operate on ``float32`` /
``float64`` arrays.  They are also reused by the I-BERT baseline, which
replaces them with integer polynomial approximations, so the exact
reference behaviour matters.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gelu", "erf", "softmax", "layer_norm", "tanh_gelu", "relu"]

# Coefficients of the Abramowitz & Stegun rational approximation of erf,
# accurate to ~1.5e-7 which is far below FP16 resolution.
_ERF_A1 = 0.254829592
_ERF_A2 = -0.284496736
_ERF_A3 = 1.421413741
_ERF_A4 = -1.453152027
_ERF_A5 = 1.061405429
_ERF_P = 0.3275911

# ``gelu`` evaluates its flattened input in blocks of this many elements,
# so its float64 temporaries stay cache-sized (~1 MB) whatever the input.
_GELU_BLOCK_ELEMENTS = 1 << 15


def _erf_inplace(z: np.ndarray) -> np.ndarray:
    """Return ``erf(z)`` for the float array ``z``, overwriting ``z`` as scratch.

    The Abramowitz & Stegun form ``sign(z) * (1 - poly(t) * t * exp(-z*z))``
    with ``t = 1 / (1 + p|z|)``, evaluated on three temporaries: each step
    is the same NumPy operation on the same operands, in the same order,
    as the one-expression form, so the result is bit-identical to it.
    """
    sign = np.sign(z)
    ax = np.abs(z, out=z)
    t = np.multiply(ax, _ERF_P, out=np.empty_like(ax))
    t += 1.0
    np.divide(1.0, t, out=t)
    poly = np.multiply(t, _ERF_A5, out=np.empty_like(t))
    for coefficient in (_ERF_A4, _ERF_A3, _ERF_A2, _ERF_A1):
        poly += coefficient
        poly *= t
    np.multiply(ax, ax, out=ax)
    np.negative(ax, out=ax)
    poly *= np.exp(ax, out=ax)
    np.subtract(1.0, poly, out=poly)
    poly *= sign
    return poly


def erf(x: np.ndarray) -> np.ndarray:
    """Elementwise error function via a rational polynomial approximation."""
    x = np.asarray(x)
    y = _erf_inplace(np.array(x, dtype=np.result_type(x, 1.0)))
    return y if y.ndim else y[()]


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian Error Linear Unit, the activation used by BERT-family FFNs.

    Returns float64 for float32 input: ``x / np.sqrt(2.0)`` divides by a
    float64 NumPy scalar (NEP 50), so ``erf`` runs in float64.  The FP
    model's accuracy goldens and the profiled dictionaries pin that.
    It runs over the flattened input in blocks of
    :data:`_GELU_BLOCK_ELEMENTS`; every element takes the same operations
    as in the one-expression form, so the result is bit-identical.
    """
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=np.result_type(x, np.sqrt(2.0)))
    flat, dst = x.reshape(-1), out.reshape(-1)
    for start in range(0, flat.size, _GELU_BLOCK_ELEMENTS):
        span = slice(start, start + _GELU_BLOCK_ELEMENTS)
        block = flat[span]
        y = _erf_inplace(np.divide(block, np.sqrt(2.0), out=dst[span]))
        y += 1.0
        np.multiply(y, 0.5 * block, out=dst[span])
    return out if out.ndim else out[()]


def tanh_gelu(x: np.ndarray) -> np.ndarray:
    """The tanh approximation of GELU (used by some checkpoints)."""
    x = np.asarray(x)
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(np.asarray(x), 0.0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return (exp / np.sum(exp, axis=axis, keepdims=True)).astype(np.float32)


def layer_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-12,
) -> np.ndarray:
    """Layer normalisation over the last dimension.

    Args:
        x: Input of shape ``(..., hidden)``.
        gamma: Scale vector of shape ``(hidden,)``.
        beta: Shift vector of shape ``(hidden,)``.
        eps: Stabilising epsilon added to the variance.
    """
    x = np.asarray(x, dtype=np.float32)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normalised = (x - mean) / np.sqrt(var + eps)
    return normalised * gamma + beta
