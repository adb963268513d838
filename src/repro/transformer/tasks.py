"""Synthetic evaluation tasks and task-performance metrics.

The paper evaluates task performance on MNLI (matched accuracy), STS-B
(Spearman correlation) and SQuAD v1 (token F1).  The datasets themselves
are not available offline, so this module builds *self-labelled* synthetic
tasks: inputs are random token sequences and the labels are the outputs of
the FP32 reference model.  By construction the FP model scores 100%, and a
quantized model's score measures its fidelity to the FP model — which is
exactly the quantity the paper's "Err" columns track (degradation relative
to the FP baseline).  See DESIGN.md §2 for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro._registry import Registry, RegistryError
from repro.accelerator.workloads import TASK_SEQUENCE_LENGTHS as _TASK_SEQUENCE_LENGTHS
from repro.transformer.model import TransformerModel

__all__ = [
    "SyntheticDataset",
    "generate_inputs",
    "label_with_model",
    "accuracy",
    "spearman_correlation",
    "span_f1",
    "evaluate",
    "TASK_METRICS",
    "TASK_FAMILIES",
    "TASKS",
]

TASK_METRICS: Dict[str, str] = {
    "classification": "accuracy",
    "regression": "spearman",
    "qa": "f1",
}

#: The paper's evaluation datasets mapped to their synthetic task family.
TASK_FAMILIES: Dict[str, str] = {
    "mnli": "classification",
    "stsb": "regression",
    "squad": "qa",
}


def _describe_task(name: str, family: str) -> str:
    metric = TASK_METRICS[family]
    if name == family:
        return f"task family (metric: {metric})"
    seq = _TASK_SEQUENCE_LENGTHS.get(name)
    default = f", default seq {seq}" if seq is not None else ""
    return f"dataset task — family {family!r} (metric: {metric}{default})"


def _check_task(name: str, family: str) -> None:
    if family not in TASK_METRICS:
        raise RegistryError(
            f"task {name!r} must map to a family in "
            f"{sorted(TASK_METRICS)}, got {family!r}",
            kind="tasks", name=name,
        )


#: Task name → family, over ``TASK_FAMILIES`` (a task registered here is
#: accepted by specs and accuracy campaigns).  The family names themselves
#: ride along as read-only virtual entries: ``TASKS.get`` maps a dataset
#: task or a family name to its family.
TASKS = Registry(
    "tasks",
    TASK_FAMILIES,
    _describe_task,
    on_register=_check_task,
    virtual_entries={family: family for family in TASK_METRICS},
)


@dataclass
class SyntheticDataset:
    """A batch of synthetic inputs with reference labels.

    Attributes:
        token_ids: ``(num_samples, seq)`` integer token ids.
        segment_ids: ``(num_samples, seq)`` segment ids (0/1).
        attention_mask: ``(num_samples, seq)`` mask of 1s and 0s.
        labels: Task-dependent reference labels produced by
            :func:`label_with_model` — class ids for classification,
            float scores for regression, ``(start, end)`` index pairs for QA.
        task: Task family this dataset belongs to.
    """

    token_ids: np.ndarray
    segment_ids: np.ndarray
    attention_mask: np.ndarray
    labels: Optional[np.ndarray]
    task: str

    @property
    def num_samples(self) -> int:
        return self.token_ids.shape[0]

    @property
    def sequence_length(self) -> int:
        return self.token_ids.shape[1]

    def subset(self, indices: np.ndarray) -> "SyntheticDataset":
        """Return a view of the dataset restricted to ``indices``."""
        labels = None if self.labels is None else self.labels[indices]
        return SyntheticDataset(
            token_ids=self.token_ids[indices],
            segment_ids=self.segment_ids[indices],
            attention_mask=self.attention_mask[indices],
            labels=labels,
            task=self.task,
        )


def generate_inputs(
    vocab_size: int,
    sequence_length: int,
    num_samples: int,
    task: str = "classification",
    pad_fraction: float = 0.1,
    seed: int = 0,
) -> SyntheticDataset:
    """Generate random token sequences with realistic padding and segments.

    Args:
        vocab_size: Vocabulary size of the target model.
        sequence_length: Tokens per sample.
        num_samples: Number of samples.
        task: Task family; sentence-pair tasks get a second segment.
        pad_fraction: Average fraction of trailing pad tokens per sample.
        seed: Random seed.
    """
    if task not in TASK_METRICS:
        raise ValueError(f"unknown task {task!r}")
    rng = np.random.default_rng(seed)
    token_ids = rng.integers(1, vocab_size, size=(num_samples, sequence_length))

    attention_mask = np.ones((num_samples, sequence_length), dtype=np.int64)
    segment_ids = np.zeros((num_samples, sequence_length), dtype=np.int64)
    for row in range(num_samples):
        pad = int(rng.integers(0, max(1, int(pad_fraction * sequence_length) + 1)))
        if pad:
            attention_mask[row, sequence_length - pad:] = 0
            token_ids[row, sequence_length - pad:] = 0
        # Sentence-pair structure: second segment starts at a random boundary.
        boundary = int(rng.integers(sequence_length // 4, 3 * sequence_length // 4))
        segment_ids[row, boundary:] = 1

    return SyntheticDataset(
        token_ids=token_ids.astype(np.int64),
        segment_ids=segment_ids,
        attention_mask=attention_mask,
        labels=None,
        task=task,
    )


def label_with_model(
    model: TransformerModel, dataset: SyntheticDataset, batch_size: int = 8
) -> SyntheticDataset:
    """Attach reference labels produced by ``model`` to ``dataset``."""
    outputs = _predict(model, dataset, batch_size=batch_size)
    if dataset.task == "classification":
        labels = np.argmax(outputs, axis=-1)
    elif dataset.task == "regression":
        labels = outputs
    else:  # qa
        labels = _span_predictions(outputs, dataset.attention_mask)
    return SyntheticDataset(
        token_ids=dataset.token_ids,
        segment_ids=dataset.segment_ids,
        attention_mask=dataset.attention_mask,
        labels=labels,
        task=dataset.task,
    )


def _predict(
    model: TransformerModel, dataset: SyntheticDataset, batch_size: int = 8, hook=None
) -> np.ndarray:
    """Run the model over the dataset in batches and stack the outputs."""
    chunks = []
    for start in range(0, dataset.num_samples, batch_size):
        end = start + batch_size
        chunks.append(
            model(
                dataset.token_ids[start:end],
                segment_ids=dataset.segment_ids[start:end],
                attention_mask=dataset.attention_mask[start:end],
                hook=hook,
            )
        )
    return np.concatenate(chunks, axis=0)


def _span_predictions(qa_logits: np.ndarray, attention_mask: np.ndarray) -> np.ndarray:
    """Convert ``(batch, seq, 2)`` QA logits into ``(batch, 2)`` span indexes."""
    masked = np.where(attention_mask[..., None] > 0, qa_logits, -1e9)
    start = np.argmax(masked[..., 0], axis=-1)
    end_candidates = masked[..., 1].copy()
    # The end index must not precede the start index.
    for row, s in enumerate(start):
        end_candidates[row, :s] = -1e9
    end = np.argmax(end_candidates, axis=-1)
    return np.stack([start, end], axis=-1)


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of exact matches, in percent."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("prediction/label shape mismatch")
    if predictions.size == 0:
        raise ValueError("cannot compute accuracy of an empty set")
    return float(np.mean(predictions == labels) * 100.0)


def spearman_correlation(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Spearman rank correlation scaled to [-100, 100] like GLUE reports."""
    predictions = np.asarray(predictions, dtype=np.float64).ravel()
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if predictions.shape != targets.shape:
        raise ValueError("prediction/target shape mismatch")
    if predictions.size < 2:
        raise ValueError("need at least two samples for a correlation")

    def _ranks(x: np.ndarray) -> np.ndarray:
        order = np.argsort(x, kind="mergesort")
        ranks = np.empty_like(order, dtype=np.float64)
        ranks[order] = np.arange(len(x), dtype=np.float64)
        # average ties
        sorted_x = x[order]
        i = 0
        while i < len(x):
            j = i
            while j + 1 < len(x) and sorted_x[j + 1] == sorted_x[i]:
                j += 1
            if j > i:
                ranks[order[i:j + 1]] = np.mean(np.arange(i, j + 1, dtype=np.float64))
            i = j + 1
        return ranks

    rp, rt = _ranks(predictions), _ranks(targets)
    rp_c = rp - rp.mean()
    rt_c = rt - rt.mean()
    denom = np.sqrt((rp_c ** 2).sum() * (rt_c ** 2).sum())
    if denom == 0:
        return 100.0 if np.allclose(predictions, targets) else 0.0
    return float((rp_c @ rt_c) / denom * 100.0)


def span_f1(predicted_spans: np.ndarray, reference_spans: np.ndarray) -> float:
    """Mean token-overlap F1 between predicted and reference spans, in percent."""
    predicted_spans = np.asarray(predicted_spans)
    reference_spans = np.asarray(reference_spans)
    if predicted_spans.shape != reference_spans.shape:
        raise ValueError("span shape mismatch")
    scores = []
    for (ps, pe), (rs, re) in zip(predicted_spans, reference_spans):
        pred_tokens = set(range(int(ps), int(pe) + 1))
        ref_tokens = set(range(int(rs), int(re) + 1))
        overlap = len(pred_tokens & ref_tokens)
        if overlap == 0:
            scores.append(0.0)
            continue
        precision = overlap / len(pred_tokens)
        recall = overlap / len(ref_tokens)
        scores.append(2 * precision * recall / (precision + recall))
    return float(np.mean(scores) * 100.0)


def evaluate(
    model: TransformerModel,
    dataset: SyntheticDataset,
    batch_size: int = 8,
    hook=None,
) -> float:
    """Score ``model`` on a labelled dataset with the task's standard metric."""
    if dataset.labels is None:
        raise ValueError("dataset has no labels; call label_with_model first")
    outputs = _predict(model, dataset, batch_size=batch_size, hook=hook)
    if dataset.task == "classification":
        return accuracy(np.argmax(outputs, axis=-1), dataset.labels)
    if dataset.task == "regression":
        return spearman_correlation(outputs, dataset.labels)
    predictions = _span_predictions(outputs, dataset.attention_mask)
    return span_f1(predictions, dataset.labels)
