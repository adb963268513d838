"""Mokey core: the paper's quantization method.

Modules:

``agglomerative``
    Bottom-up agglomerative clustering used to build the Golden Dictionary.
``golden_dictionary``
    The model-independent Golden Dictionary (paper Step 1, Fig. 2).
``exponential_fit``
    Weighted fit of ``a**int + b`` to the Golden Dictionary (Fig. 3).
``fixed_point``
    Float-to-fixed-point conversion (Eq. 7-8).
``tensor_dictionary``
    Per-tensor Gaussian/outlier dictionaries (paper Step 2).
``quantizer``
    Encoding/decoding of tensors into 4-bit sign+index form.
``index_compute``
    The index-domain MAC decomposition (Eq. 3-6, Fig. 4).
``activation_quantizer``
    On-the-fly output-activation quantization (Fig. 7).
``model_quantizer``
    Whole-model quantization: weights offline, activations via profiling.
"""

from repro.core.agglomerative import agglomerative_cluster_1d, pairwise_agglomerative
from repro.core.golden_dictionary import GoldenDictionary, generate_golden_dictionary
from repro.core.exponential_fit import ExponentialFit, fit_exponential
from repro.core.fixed_point import FixedPointFormat, to_fixed_point
from repro.core.tensor_dictionary import TensorDictionary
from repro.core.quantizer import MokeyQuantizer, QuantizedTensor
from repro.core.index_compute import (
    IndexDomainEngine,
    VectorizedIndexDomainEngine,
    index_domain_dot,
    index_domain_matmul,
)
from repro.core.activation_quantizer import OutputActivationQuantizer
from repro.core.model_quantizer import MokeyModelQuantizer, QuantizationMode

__all__ = [
    "agglomerative_cluster_1d",
    "pairwise_agglomerative",
    "GoldenDictionary",
    "generate_golden_dictionary",
    "ExponentialFit",
    "fit_exponential",
    "FixedPointFormat",
    "to_fixed_point",
    "TensorDictionary",
    "MokeyQuantizer",
    "QuantizedTensor",
    "IndexDomainEngine",
    "VectorizedIndexDomainEngine",
    "index_domain_dot",
    "index_domain_matmul",
    "OutputActivationQuantizer",
    "MokeyModelQuantizer",
    "QuantizationMode",
]
