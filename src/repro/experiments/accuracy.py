"""Accuracy campaigns: task-fidelity evaluation of quantization schemes.

The paper's headline claim is joint: Mokey's 4-bit dictionary quantization
costs <1% task fidelity (Table I) *while* delivering the hardware wins of
Tables II-IV.  This module computes the accuracy half for the same
:class:`~repro.experiments.scenario.Scenario` grid the hardware campaigns
sweep: for each scenario it materializes the scaled functional twin of the
model from the zoo, quantizes it through the numerics side of the scheme
registry (weight-only and, where the scheme quantizes activations,
weight+activation), evaluates it on the synthetic task suite
(:mod:`repro.transformer.tasks`) and returns a :class:`FidelityResult`.

Scores are fidelity to each model's own FP behaviour (the FP model scores
100 by construction), so ``fp_score - score`` is the paper's "Err"
quantity — degradation relative to the FP baseline; see DESIGN.md §2.

Fidelity depends only on ``(model, task, scheme)`` — not on sequence
length, batch size, design point or buffer capacity — so one quantization
plus evaluation (memoised per :func:`accuracy_key` in the campaign's
:class:`~repro.experiments.campaign.ResultCache`) serves every seq/batch/
buffer point of the grid.

Built-in schemes are mapped to numerics evaluators here (the Mokey family
through the full :class:`~repro.core.model_quantizer.MokeyModelQuantizer`,
everything else through the scheme's tensor-level ``quantize_dequantize``);
a registered scheme without an evaluator — e.g. a compute-only cost model —
raises :class:`UnsupportedSchemeError` when swept with accuracy enabled.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.experiments.scenario import DESIGNS, Scenario
from repro.schemes.base import SCHEMES
from repro.transformer.tasks import (
    TASK_METRICS,
    TASKS,
    SyntheticDataset,
    evaluate,
    generate_inputs,
    label_with_model,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.model_quantizer import MokeyModelQuantizer

__all__ = [
    "AccuracySettings",
    "DEFAULT_ACCURACY_SETTINGS",
    "AccuracyKey",
    "FidelityResult",
    "UnsupportedSchemeError",
    "accuracy_scheme_for",
    "accuracy_key",
    "supports_accuracy",
    "supported_accuracy_schemes",
    "register_fidelity_evaluator",
    "evaluate_fidelity",
    "fidelity_digest",
]


class UnsupportedSchemeError(ValueError):
    """A scheme has no accuracy-side numerics evaluator registered."""


def content_digest(data: Mapping[str, Any], length: int) -> str:
    """The first ``length`` hex digits of the sha256 of ``data`` as canonical JSON."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:length]


def stable_seed(*parts: object) -> int:
    """A process- and hash-seed-independent seed for one memo key."""
    blob = "|".join(str(part) for part in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")


class JoinSettings:
    """Serialisation shared by each join's frozen settings dataclass:
    :class:`AccuracySettings` and
    :class:`~repro.experiments.measured.MeasurementSettings`."""

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data):
        """Rebuild settings from :meth:`to_dict` output, ignoring unknown keys."""
        names = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in dict(data).items() if key in names})

    def digest(self) -> str:
        """Stable content digest of the settings.

        Stamped into every result the settings produce, so a cached or
        stored result is never served to a campaign evaluating under
        different parameters — a result is only reusable when its
        settings match.
        """
        return content_digest(self.to_dict(), 12)


@dataclass(frozen=True)
class AccuracySettings(JoinSettings):
    """Deterministic parameters of one fidelity evaluation.

    The functional models are the architecture-preserving scaled twins of
    DESIGN.md §2 (the full models hold 110M-750M parameters); the Golden
    Dictionary uses a reduced but structurally identical build so a fresh
    worker process pays fractions of a second, not tens.  All fields feed
    the evaluation deterministically: identical settings + scenario always
    produce a bit-identical :class:`FidelityResult`.

    Attributes:
        scale: Width divisor for the functional twin.
        max_layers: Encoder-depth cap for the functional twin.
        pool_samples: Synthetic samples generated per (model, task); the
            first :attr:`profile_samples` calibrate activations, the rest
            evaluate.
        profile_samples: Profiling inputs (the paper uses one small batch).
        classification_sequence_length: Eval tokens for MNLI/STS-B twins.
        qa_sequence_length: Eval tokens for SQuAD twins.
        golden_samples: Samples for the Golden Dictionary build.
        golden_repeats: Repeats for the Golden Dictionary build.
        golden_seed: Seed for the Golden Dictionary build.
    """

    scale: int = 16
    max_layers: int = 2
    pool_samples: int = 48
    profile_samples: int = 8
    classification_sequence_length: int = 24
    qa_sequence_length: int = 48
    golden_samples: int = 12000
    golden_repeats: int = 2
    golden_seed: int = 7

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            least = 0 if f.name == "golden_seed" else 1  # a seed may be 0
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(
                    f"accuracy_settings.{f.name} must be an integer >= {least}, got {value!r}"
                )
        if self.pool_samples <= self.profile_samples:  # evaluation reads pool[profile_samples:]
            raise ValueError(
                f"accuracy_settings.pool_samples must exceed profile_samples "
                f"({self.profile_samples}), got {self.pool_samples!r}"
            )

    def sequence_length_for(self, family: str) -> int:
        return self.qa_sequence_length if family == "qa" else self.classification_sequence_length


DEFAULT_ACCURACY_SETTINGS = AccuracySettings()

#: The memo key of one fidelity evaluation: ``(model, task, scheme)``.
AccuracyKey = Tuple[str, str, str]


def accuracy_scheme_for(scenario: Scenario) -> str:
    """The numerics scheme a scenario evaluates: the override, else the
    design's own datapath scheme."""
    if scenario.scheme is not None:
        return scenario.scheme
    return DESIGNS.get(scenario.design)().datapath


def accuracy_key(scenario: Scenario) -> AccuracyKey:
    """The fidelity memo key of ``scenario``.

    Deliberately excludes sequence length, batch size, design point and
    buffer capacity: task fidelity is a property of the numerics alone, so
    one evaluation serves every hardware point of the grid.
    """
    return (scenario.model, scenario.task, accuracy_scheme_for(scenario))


@dataclass
class FidelityResult:
    """Task-fidelity outcome of one (model, task, scheme) evaluation.

    Attributes:
        scheme: Numerics scheme evaluated.
        metric: Task metric (``accuracy`` | ``spearman`` | ``f1``), in
            percent on the fidelity-to-FP scale (FP model = 100).
        fp_score: Score of the FP twin on its own labels (100 nominal).
        weight_only_score: Score after weight-only quantization.
        weight_activation_score: Score after weight+activation
            quantization; ``None`` when the scheme has no activation
            numerics (FP16, GOBO).
        weight_outlier_fraction: Fraction of weight values outlier-encoded
            (measured for the Mokey family, the scheme's declared storage
            fraction otherwise) — Table I "W OT%" when ×100.
        activation_outlier_fraction: Same for activations ("A OT%").
        compression_ratio: FP32 weight bits over quantized weight bits.
        eval_samples: Evaluation samples behind the scores.
        seed: Seed the functional twin and datasets were built from.
        settings_digest: :meth:`AccuracySettings.digest` of the settings
            that produced the result; cache/store lookups only reuse a
            result whose digest matches the requested settings.
    """

    scheme: str = ""
    metric: str = ""
    fp_score: float = 0.0
    weight_only_score: float = 0.0
    weight_activation_score: Optional[float] = None
    weight_outlier_fraction: float = 0.0
    activation_outlier_fraction: float = 0.0
    compression_ratio: float = 1.0
    eval_samples: int = 0
    seed: int = 0
    settings_digest: str = ""

    @property
    def weight_only_error(self) -> float:
        """The paper's "Err" for weight-only mode: FP score minus score."""
        return self.fp_score - self.weight_only_score

    @property
    def weight_activation_error(self) -> Optional[float]:
        """The paper's "Err" for weight+activation mode (``None`` if unsupported)."""
        if self.weight_activation_score is None:
            return None
        return self.fp_score - self.weight_activation_score

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready field mapping; inverse of :meth:`from_dict`."""
        return {
            "scheme": self.scheme,
            "metric": self.metric,
            "fp_score": float(self.fp_score),
            "weight_only_score": float(self.weight_only_score),
            "weight_activation_score": (
                None
                if self.weight_activation_score is None
                else float(self.weight_activation_score)
            ),
            "weight_outlier_fraction": float(self.weight_outlier_fraction),
            "activation_outlier_fraction": float(self.activation_outlier_fraction),
            "compression_ratio": float(self.compression_ratio),
            "eval_samples": int(self.eval_samples),
            "seed": int(self.seed),
            "settings_digest": self.settings_digest,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FidelityResult":
        """Rebuild a result from :meth:`to_dict` output, ignoring unknown keys."""
        names = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in names})


def fidelity_digest(result: FidelityResult) -> str:
    """Stable content digest of the full fidelity result (all fields)."""
    return content_digest(result.to_dict(), 16)


# --------------------------------------------------------------------------- #
# Numerics evaluators
# --------------------------------------------------------------------------- #
class _FidelityParts(NamedTuple):
    """Scheme-specific half of a fidelity evaluation."""

    weight_only_score: float
    weight_activation_score: Optional[float]
    weight_outlier_fraction: float
    activation_outlier_fraction: float
    compression_ratio: float


#: ``(scheme_name, fp_model, profiling, evaluation, settings) -> _FidelityParts``
_FidelityEvaluator = Callable[..., _FidelityParts]

_EVALUATORS: Dict[str, _FidelityEvaluator] = {}


def register_fidelity_evaluator(
    name: str, evaluator: _FidelityEvaluator, replace: bool = False
) -> None:
    """Register the accuracy-side numerics evaluator for scheme ``name``."""
    if name in _EVALUATORS and not replace:
        raise ValueError(f"fidelity evaluator for {name!r} is already registered")
    _EVALUATORS[name] = evaluator


def supports_accuracy(scheme_name: str) -> bool:
    """Whether ``scheme_name`` can be evaluated for task fidelity."""
    return scheme_name in _EVALUATORS


def supported_accuracy_schemes() -> Tuple[str, ...]:
    """Scheme names with a registered fidelity evaluator, sorted."""
    return tuple(sorted(_EVALUATORS))


_QUANTIZER_LOCK = threading.Lock()
_QUANTIZER_CACHE: Dict[Tuple[int, int, int], "MokeyModelQuantizer"] = {}


def _model_quantizer(settings: JoinSettings) -> "MokeyModelQuantizer":
    """One shared MokeyModelQuantizer per Golden-Dictionary parameterisation.

    ``settings`` is either join's settings (both carry ``golden_samples``,
    ``golden_repeats`` and ``golden_seed``).  The Golden Dictionary is the
    deterministic prefix of every Mokey-family evaluation and measurement
    (loaded from its pinned bits for the default settings, generated
    otherwise); sharing it across the campaign keeps the per-scenario cost
    at the quantize+evaluate level.
    """
    from repro.core.golden_dictionary import load_golden_dictionary
    from repro.core.model_quantizer import MokeyModelQuantizer

    key = (settings.golden_samples, settings.golden_repeats, settings.golden_seed)
    with _QUANTIZER_LOCK:
        quantizer = _QUANTIZER_CACHE.get(key)
        if quantizer is None:
            golden = load_golden_dictionary(
                num_samples=settings.golden_samples,
                num_repeats=settings.golden_repeats,
                seed=settings.golden_seed,
            )
            quantizer = MokeyModelQuantizer(golden)
            _QUANTIZER_CACHE[key] = quantizer
        return quantizer


def _mokey_fidelity(
    scheme_name: str,
    fp_model,
    profiling: SyntheticDataset,
    evaluation: SyntheticDataset,
    settings: AccuracySettings,
) -> _FidelityParts:
    """Mokey-family numerics: full weight + profiled-activation quantization.

    The memory-compression deployments (``mokey-oc``, ``mokey-oc+on``)
    share Mokey's numerics exactly — only the accelerator cost model
    differs (paper Section IV-D).
    """
    from repro.core.model_quantizer import QuantizationMode

    quantizer = _model_quantizer(settings)
    weight_only = quantizer.quantize(fp_model, mode=QuantizationMode.WEIGHTS_ONLY)
    weight_only_score = evaluate(weight_only.model, evaluation)
    full = quantizer.quantize(
        fp_model,
        mode=QuantizationMode.WEIGHTS_AND_ACTIVATIONS,
        profiling_dataset=profiling,
        profiling_samples=settings.profile_samples,
    )
    hook = full.activation_hook()
    weight_activation_score = evaluate(full.model, evaluation, hook=hook)
    return _FidelityParts(
        weight_only_score=weight_only_score,
        weight_activation_score=weight_activation_score,
        weight_outlier_fraction=full.report.weight_outlier_fraction,
        activation_outlier_fraction=hook.outlier_fraction if hook is not None else 0.0,
        compression_ratio=full.report.weight_compression_ratio,
    )


class _UniformActivationHook:
    """Fake-quantizes activations with uniform symmetric numerics.

    Used for the Table IV baselines that quantize activations to a uniform
    integer grid (Q8BERT/I-BERT/Q-BERT/TernaryBERT run 8-bit activations);
    the final task logits stay FP like the Mokey path's excludes.
    """

    EXCLUDES = ("head.output",)

    def __init__(self, bits: int) -> None:
        self.bits = bits

    def __call__(self, name: str, array: np.ndarray) -> np.ndarray:
        from repro.baselines.base import uniform_symmetric_quantize

        if name in self.EXCLUDES:
            return array
        reconstruction, _ = uniform_symmetric_quantize(np.asarray(array), self.bits)
        return reconstruction.reshape(array.shape).astype(np.float32)


def _tensor_fidelity(
    scheme_name: str,
    fp_model,
    profiling: SyntheticDataset,
    evaluation: SyntheticDataset,
    settings: AccuracySettings,
) -> _FidelityParts:
    """Generic numerics: round-trip every weight through the scheme.

    Weight-only mode maps the scheme's ``quantize_dequantize`` over the
    parameter tensors; weight+activation mode additionally fake-quantizes
    activations on a uniform grid when the scheme declares activation bits
    below 16 (weights-only methods like GOBO report ``None``).  Outlier
    fractions come from the scheme's declared storage model — these
    numerics don't expose measured fractions.
    """
    scheme = SCHEMES.get(scheme_name)
    quantized = fp_model.copy()
    for name, values in fp_model.weight_matrices().items():
        quantized.set_parameter(
            name, np.asarray(scheme.quantize_dequantize(values, name=name), dtype=np.float32)
        )
    weight_only_score = evaluate(quantized, evaluation)

    weight_activation_score: Optional[float] = None
    if scheme.activation_bits < 16.0:
        hook = _UniformActivationHook(int(scheme.activation_bits))
        weight_activation_score = evaluate(quantized, evaluation, hook=hook)

    storage = scheme.storage()
    return _FidelityParts(
        weight_only_score=weight_only_score,
        weight_activation_score=weight_activation_score,
        weight_outlier_fraction=storage.weight_outlier_fraction,
        activation_outlier_fraction=storage.activation_outlier_fraction,
        compression_ratio=32.0 / float(scheme.weight_bits),
    )


for _name in ("mokey", "mokey-oc", "mokey-oc+on"):
    register_fidelity_evaluator(_name, _mokey_fidelity)
for _name in ("fp16", "gobo", "q8bert", "ibert", "qbert", "ternarybert"):
    register_fidelity_evaluator(_name, _tensor_fidelity)
del _name


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def evaluate_fidelity(
    model: str,
    task: str,
    scheme: str,
    settings: Optional[AccuracySettings] = None,
) -> FidelityResult:
    """Evaluate the task fidelity of ``scheme`` on one (model, task) pair.

    Deterministic: the functional twin, the dataset pool and the split are
    all derived from a stable hash of ``(model, task)``, so any process —
    serial or pool worker — produces a bit-identical result.

    Raises:
        UnsupportedSchemeError: ``scheme`` has no registered evaluator.
        ValueError: unknown task or model name.
    """
    from repro.transformer.model_zoo import build_simulation_model

    settings = settings or DEFAULT_ACCURACY_SETTINGS
    evaluator = _EVALUATORS.get(scheme)
    if evaluator is None:
        supported = ", ".join(supported_accuracy_schemes())
        raise UnsupportedSchemeError(
            f"scheme {scheme!r} has no accuracy-side numerics evaluator "
            f"(schemes supporting accuracy campaigns: {supported})"
        )
    family = TASKS.get(task)
    seed = stable_seed(model, task)
    try:
        fp_model = build_simulation_model(
            model, task=task, scale=settings.scale, max_layers=settings.max_layers, seed=seed
        )
    except KeyError as exc:
        raise ValueError(str(exc)) from None
    pool = label_with_model(
        fp_model,
        generate_inputs(
            fp_model.config.vocab_size,
            settings.sequence_length_for(family),
            settings.pool_samples,
            family,
            seed=seed + 1,
        ),
    )
    profiling = pool.subset(np.arange(settings.profile_samples))
    evaluation = pool.subset(np.arange(settings.profile_samples, pool.num_samples))

    fp_score = evaluate(fp_model, evaluation)
    parts = evaluator(scheme, fp_model, profiling, evaluation, settings)
    return FidelityResult(
        scheme=scheme,
        metric=TASK_METRICS[family],
        fp_score=fp_score,
        weight_only_score=parts.weight_only_score,
        weight_activation_score=parts.weight_activation_score,
        weight_outlier_fraction=parts.weight_outlier_fraction,
        activation_outlier_fraction=parts.activation_outlier_fraction,
        compression_ratio=parts.compression_ratio,
        eval_samples=evaluation.num_samples,
        seed=seed,
        settings_digest=settings.digest(),
    )
