"""NumPy transformer inference substrate.

The paper evaluates Mokey on HuggingFace pre-trained FP16 transformer
checkpoints.  Those checkpoints (and the GPUs used to run them) are not
available in this environment, so this subpackage provides a forward-only
transformer implementation plus a synthetic model zoo whose weight and
activation *distributions* match what the paper relies on: bell-shaped
(Gaussian) cores with a small fraction of large-magnitude outliers.
"""

from repro.transformer.config import TransformerConfig
from repro.transformer.index_execution import IndexDomainEncoderExecutor, LayerMeasurement
from repro.transformer.index_model import (
    IndexDomainModelExecutor,
    IndexKVCache,
    ModelMeasurement,
    execute_model,
)
from repro.transformer.model import TransformerModel
from repro.transformer.prepared import PreparedModel, prepare_model
from repro.transformer.profiling import ActivationProfiler, TensorStatistics

__all__ = [
    "TransformerConfig",
    "TransformerModel",
    "ActivationProfiler",
    "TensorStatistics",
    "IndexDomainEncoderExecutor",
    "LayerMeasurement",
    "IndexDomainModelExecutor",
    "ModelMeasurement",
    "execute_model",
    "IndexKVCache",
    "PreparedModel",
    "prepare_model",
]
