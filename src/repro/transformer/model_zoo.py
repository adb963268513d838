"""Model zoo: the paper's model configurations and synthetic instantiation.

Two distinct uses are served:

1. **Analytical experiments** (footprints, accelerator workloads) use the
   *full-size* configurations returned by :func:`bert_base`, :func:`bert_large`,
   :func:`roberta_large` and :func:`deberta_xl`.  No weights are materialised
   for these — only the shapes matter.
2. **Functional experiments** (fidelity of quantized inference, profiling
   stability) instantiate NumPy weights.  Because the full models hold
   110M-750M parameters, the functional path defaults to architecture-
   preserving scaled-down models built by :func:`build_simulation_model`;
   the scaling is documented in DESIGN.md and EXPERIMENTS.md.

Synthetic weights are drawn from the distribution family the paper relies
on: a narrow Gaussian core containing ~98.5% of the values plus a small
fraction of large-magnitude outliers, per tensor.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro._registry import Registry
from repro.transformer.attention import MultiHeadSelfAttention
from repro.transformer.config import TransformerConfig
from repro.transformer.embeddings import TransformerEmbeddings
from repro.transformer.encoder import EncoderBlock, EncoderStack
from repro.transformer.layers import Embedding, FeedForward, LayerNorm, Linear
from repro.transformer.model import TransformerModel

__all__ = [
    "bert_base",
    "bert_large",
    "roberta_large",
    "deberta_xl",
    "MODEL_CONFIGS",
    "MODELS",
    "PAPER_MODELS",
    "gaussian_with_outliers",
    "build_model",
    "build_simulation_model",
]

# Fraction of weight values drawn from the heavy tail. Matches the ~1.2-1.6%
# weight-outlier fractions reported in Table I of the paper.
DEFAULT_WEIGHT_OUTLIER_FRACTION = 0.015
# How much wider the outlier tail is compared to the Gaussian core.
DEFAULT_OUTLIER_SPREAD = 8.0


def bert_base() -> TransformerConfig:
    """BERT-Base: 12 encoders, hidden 768, ~110M parameters."""
    return TransformerConfig(
        name="bert-base",
        num_layers=12,
        hidden_size=768,
        num_heads=12,
        intermediate_size=3072,
    )


def bert_large() -> TransformerConfig:
    """BERT-Large: 24 encoders, hidden 1024, ~340M parameters."""
    return TransformerConfig(
        name="bert-large",
        num_layers=24,
        hidden_size=1024,
        num_heads=16,
        intermediate_size=4096,
    )


def roberta_large() -> TransformerConfig:
    """RoBERTa-Large: same shape as BERT-Large, larger vocabulary."""
    return TransformerConfig(
        name="roberta-large",
        num_layers=24,
        hidden_size=1024,
        num_heads=16,
        intermediate_size=4096,
        vocab_size=50265,
    )


def deberta_xl() -> TransformerConfig:
    """DeBERTa-XL: 48 encoders, hidden 1024, disentangled attention, ~750M."""
    return TransformerConfig(
        name="deberta-xl",
        num_layers=48,
        hidden_size=1024,
        num_heads=16,
        intermediate_size=4096,
        vocab_size=128100,
        disentangled_attention=True,
    )


MODEL_CONFIGS: Dict[str, TransformerConfig] = {
    "bert-base": bert_base(),
    "bert-large": bert_large(),
    "roberta-large": roberta_large(),
    "deberta-xl": deberta_xl(),
}


def _describe_model(name: str, config: Any) -> str:
    return config.summary()


#: Model name → configuration, over ``MODEL_CONFIGS``.
MODELS = Registry("models", MODEL_CONFIGS, _describe_model)

# The (model, task, sequence length, metric) combinations of Table I.
PAPER_MODELS = (
    ("bert-base", "mnli", 128, "classification"),
    ("bert-large", "mnli", 128, "classification"),
    ("bert-large", "stsb", 128, "regression"),
    ("bert-large", "squad", 384, "qa"),
    ("roberta-large", "mnli", 128, "classification"),
    ("roberta-large", "stsb", 128, "regression"),
    ("roberta-large", "squad", 384, "qa"),
    ("deberta-xl", "mnli", 128, "classification"),
)


def gaussian_with_outliers(
    shape,
    std: float,
    outlier_fraction: float = DEFAULT_WEIGHT_OUTLIER_FRACTION,
    outlier_spread: float = DEFAULT_OUTLIER_SPREAD,
    mean: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sample a tensor from a Gaussian core plus a heavy outlier tail.

    Args:
        shape: Output array shape.
        std: Standard deviation of the Gaussian core.
        outlier_fraction: Fraction of values replaced by tail samples.
        outlier_spread: Tail samples are uniform in magnitude between
            ``3*std`` and ``outlier_spread*std``.
        mean: Mean of the distribution.
        rng: Random generator; a default one is created if omitted.
    """
    rng = rng or np.random.default_rng(0)
    values = rng.normal(loc=mean, scale=std, size=shape).astype(np.float32)
    flat = values.ravel()
    n_outliers = int(round(outlier_fraction * flat.size))
    if n_outliers > 0:
        idx = rng.choice(flat.size, size=n_outliers, replace=False)
        magnitudes = rng.uniform(3.0 * std, outlier_spread * std, size=n_outliers)
        signs = rng.choice([-1.0, 1.0], size=n_outliers)
        flat[idx] = mean + signs * magnitudes
    return flat.reshape(shape).astype(np.float32)


def _linear(
    rng: np.random.Generator,
    in_features: int,
    out_features: int,
    std: float = 0.02,
    outlier_fraction: float = DEFAULT_WEIGHT_OUTLIER_FRACTION,
) -> Linear:
    weight = gaussian_with_outliers(
        (in_features, out_features), std=std, outlier_fraction=outlier_fraction, rng=rng
    )
    bias = rng.normal(0.0, 0.01, size=out_features).astype(np.float32)
    return Linear(weight, bias)


def _layer_norm(rng: np.random.Generator, hidden: int, eps: float) -> LayerNorm:
    gamma = rng.normal(1.0, 0.05, size=hidden).astype(np.float32)
    beta = rng.normal(0.0, 0.05, size=hidden).astype(np.float32)
    return LayerNorm(gamma, beta, eps=eps)


def build_model(
    config: TransformerConfig,
    task: str = "classification",
    num_classes: int = 3,
    seed: int = 0,
    weight_outlier_fraction: float = DEFAULT_WEIGHT_OUTLIER_FRACTION,
) -> TransformerModel:
    """Instantiate a model with synthetic, realistically distributed weights.

    Args:
        config: Architecture to build.
        task: ``"classification"``, ``"regression"`` or ``"qa"``.
        num_classes: Output width of the classification head.
        seed: Seed for the weight generator (deterministic builds).
        weight_outlier_fraction: Fraction of heavy-tail weight values.
    """
    rng = np.random.default_rng(seed)
    h = config.hidden_size
    eps = config.layer_norm_eps

    embeddings = TransformerEmbeddings(
        token=Embedding(
            gaussian_with_outliers(
                (config.vocab_size, h), std=0.02,
                outlier_fraction=weight_outlier_fraction, rng=rng,
            )
        ),
        position=Embedding(
            gaussian_with_outliers(
                (config.max_position_embeddings, h), std=0.02,
                outlier_fraction=weight_outlier_fraction, rng=rng,
            )
        ),
        segment=Embedding(
            gaussian_with_outliers(
                (config.type_vocab_size, h), std=0.02,
                outlier_fraction=weight_outlier_fraction, rng=rng,
            )
        ),
        norm=_layer_norm(rng, h, eps),
    )

    blocks = []
    for _ in range(config.num_layers):
        if config.disentangled_attention:
            relative_key = _linear(rng, h, h, outlier_fraction=weight_outlier_fraction)
            relative_query = _linear(rng, h, h, outlier_fraction=weight_outlier_fraction)
            relative_embedding = gaussian_with_outliers(
                (2 * min(64, config.max_position_embeddings), h),
                std=0.02,
                outlier_fraction=weight_outlier_fraction,
                rng=rng,
            )
        else:
            relative_key = relative_query = relative_embedding = None
        attention = MultiHeadSelfAttention(
            query=_linear(rng, h, h, outlier_fraction=weight_outlier_fraction),
            key=_linear(rng, h, h, outlier_fraction=weight_outlier_fraction),
            value=_linear(rng, h, h, outlier_fraction=weight_outlier_fraction),
            output=_linear(rng, h, h, outlier_fraction=weight_outlier_fraction),
            num_heads=config.num_heads,
            relative_key=relative_key,
            relative_query=relative_query,
            relative_embedding=relative_embedding,
        )
        ffn = FeedForward(
            intermediate=_linear(
                rng, h, config.intermediate_size, outlier_fraction=weight_outlier_fraction
            ),
            output=_linear(
                rng, config.intermediate_size, h, outlier_fraction=weight_outlier_fraction
            ),
        )
        blocks.append(
            EncoderBlock(
                attention=attention,
                attention_norm=_layer_norm(rng, h, eps),
                ffn=ffn,
                output_norm=_layer_norm(rng, h, eps),
            )
        )

    pooler = _linear(rng, h, h, outlier_fraction=weight_outlier_fraction)
    if task == "qa":
        head = _linear(rng, h, 2, outlier_fraction=0.0)
    elif task == "regression":
        head = _linear(rng, h, 1, outlier_fraction=0.0)
    else:
        head = _linear(rng, h, num_classes, outlier_fraction=0.0)

    return TransformerModel(
        config=config,
        embeddings=embeddings,
        encoder=EncoderStack(blocks),
        pooler=pooler,
        head=head,
        task=task,
    )


def build_simulation_model(
    model_name: str,
    task: str = "classification",
    scale: int = 8,
    max_layers: Optional[int] = 4,
    seed: int = 0,
) -> TransformerModel:
    """Build a scaled-down functional twin of one of the paper's models.

    The returned model preserves the architecture family (relative hidden /
    intermediate ratio, attention structure, disentangled attention for
    DeBERTa) but shrinks the width by ``scale`` and optionally truncates the
    depth so that NumPy inference and quantization finish quickly.

    Args:
        model_name: One of ``MODEL_CONFIGS`` keys.
        task: Task head to attach.
        scale: Width divisor applied to hidden/intermediate/vocab sizes.
        max_layers: Optional cap on the number of encoder layers
            (``None`` keeps the original depth).
        seed: Weight generator seed.
    """
    if model_name not in MODEL_CONFIGS:
        raise KeyError(f"unknown model {model_name!r}; known: {sorted(MODEL_CONFIGS)}")
    config = MODEL_CONFIGS[model_name].scaled(scale)
    if max_layers is not None and config.num_layers > max_layers:
        config = TransformerConfig(
            name=config.name,
            num_layers=max_layers,
            hidden_size=config.hidden_size,
            num_heads=config.num_heads,
            intermediate_size=config.intermediate_size,
            vocab_size=config.vocab_size,
            max_position_embeddings=config.max_position_embeddings,
            type_vocab_size=config.type_vocab_size,
            layer_norm_eps=config.layer_norm_eps,
            disentangled_attention=config.disentangled_attention,
            dtype=config.dtype,
        )
    head_task = "classification" if task == "mnli" else task
    if task == "stsb":
        head_task = "regression"
    elif task == "squad":
        head_task = "qa"
    return build_model(config, task=head_task, seed=seed)
