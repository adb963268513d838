"""Mokey reproduction library.

Reproduction of "Mokey: Enabling Narrow Fixed-Point Inference for
Out-of-the-Box Floating-Point Transformer Models" (ISCA 2022).

The package is organised as follows:

``repro.core``
    The paper's contribution: Golden-Dictionary quantization, exponential
    index-domain compute, outlier handling, and whole-model quantization.
``repro.transformer``
    A from-scratch NumPy transformer inference substrate (BERT-style
    encoders) together with a synthetic model zoo and synthetic evaluation
    tasks used for fidelity measurements.
``repro.baselines``
    Competing quantization methods used in the paper's Table IV
    (GOBO, Q8BERT, I-BERT, Q-BERT, TernaryBERT).
``repro.schemes``
    The pluggable quantization-scheme registry: every method's numerics
    *and* accelerator cost model behind one interface, looked up by name.
``repro.memory``
    Memory-system substrate: the Mokey DRAM container, compression
    accounting, a DDR4 main-memory model and an SRAM buffer model.
``repro.accelerator``
    Staged accelerator simulation (datapath / memory / overlap models):
    FP16 Tensor-Cores baseline, the GOBO accelerator and the Mokey
    accelerator, plus the memory-compression-only deployment modes.
``repro.experiments``
    The scenario/campaign sweep engine: grid expansion over models, tasks,
    sequence lengths, batch sizes, schemes, designs and buffer sizes, with
    an in-process result cache, ``concurrent.futures`` fan-out, and
    accuracy campaigns joining task fidelity to the hardware results.
``repro.analysis``
    Footprint analysis, fidelity tables and report formatting shared by
    the benchmarks and the CLI.
"""

from repro.core.golden_dictionary import GoldenDictionary, generate_golden_dictionary
from repro.core.quantizer import MokeyQuantizer, QuantizedTensor
from repro.core.model_quantizer import MokeyModelQuantizer, QuantizationMode
from repro.core.exponential_fit import ExponentialFit, fit_exponential
from repro.transformer.config import TransformerConfig
from repro.transformer.model import TransformerModel
from repro.transformer import model_zoo
from repro.schemes import QuantizationScheme, available_schemes, get_scheme, register_scheme
from repro.experiments import (
    AxisGrid,
    CampaignSpec,
    Enrichments,
    ExecutionPolicy,
    FidelityResult,
    Scenario,
    evaluate_fidelity,
    iter_campaign,
    run_spec,
)
from repro.registry import Registry, RegistryError, get_registry, registry_kinds

__version__ = "1.0.0"

__all__ = [
    "GoldenDictionary",
    "generate_golden_dictionary",
    "MokeyQuantizer",
    "QuantizedTensor",
    "MokeyModelQuantizer",
    "QuantizationMode",
    "ExponentialFit",
    "fit_exponential",
    "TransformerConfig",
    "TransformerModel",
    "model_zoo",
    "QuantizationScheme",
    "available_schemes",
    "get_scheme",
    "register_scheme",
    "FidelityResult",
    "Scenario",
    "evaluate_fidelity",
    "AxisGrid",
    "CampaignSpec",
    "Enrichments",
    "ExecutionPolicy",
    "iter_campaign",
    "run_spec",
    "Registry",
    "RegistryError",
    "get_registry",
    "registry_kinds",
    "__version__",
]
