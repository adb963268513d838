"""Shared fixtures for the test suite.

The Golden Dictionary generation over 50,000 samples takes a few seconds,
so the suite shares smaller (but structurally identical) session-scoped
fixtures: a reduced-sample Golden Dictionary, a small transformer model
and a matching synthetic dataset.

The suite's two dominant hotspots are repeated fidelity evaluations of
the same ``(model, task, scheme)`` keys under identical settings (the CLI
``table1`` tests and the accuracy goldens both sweep the paper's eight
Table I rows): :func:`_fidelity_session_cache` memoises
``evaluate_fidelity`` for the whole session so each key is computed once
per run.  Correct because the evaluation is deterministic in (key,
settings) — a guarantee still locked independently by the
process-executor equivalence tests (pool workers bypass the in-process
memo) and the accuracy goldens.
"""

from __future__ import annotations

import copy
import threading

import numpy as np
import pytest

from repro.core.golden_dictionary import GoldenDictionary, generate_golden_dictionary
from repro.core.index_compute import VectorizedIndexDomainEngine
from repro.core.quantizer import MokeyQuantizer
from repro.transformer.config import TransformerConfig
from repro.transformer.model_zoo import build_model
from repro.transformer.tasks import generate_inputs, label_with_model


class Float64Engine(VectorizedIndexDomainEngine):
    """The vectorized engine with float64 planes: the float64 reference.

    The default engine computes in float32; engine checks held to
    ``rtol=1e-9`` run on this class (``from conftest import Float64Engine``).
    """

    plane_dtype = np.float64


@pytest.fixture(scope="session", autouse=True)
def _fidelity_session_cache():
    """Compute each (model, task, scheme, settings) fidelity once per run."""
    from repro.experiments import accuracy, campaign

    real = accuracy.evaluate_fidelity
    memo: dict = {}
    lock = threading.Lock()

    def cached(model, task, scheme, settings=None):
        digest = (settings or accuracy.DEFAULT_ACCURACY_SETTINGS).digest()
        key = (model, task, scheme, digest)
        with lock:
            hit = memo.get(key)
        if hit is None:
            hit = real(model, task, scheme, settings=settings)
            with lock:
                memo[key] = hit
        # Each caller gets an independent instance so one test mutating
        # its result cannot contaminate another.
        return copy.deepcopy(hit)

    accuracy.evaluate_fidelity = cached
    campaign.evaluate_fidelity = cached
    try:
        yield
    finally:
        accuracy.evaluate_fidelity = real
        campaign.evaluate_fidelity = real


@pytest.fixture(scope="session")
def golden() -> GoldenDictionary:
    """A Golden Dictionary generated from a reduced sample count."""
    return generate_golden_dictionary(num_samples=8000, num_repeats=2, seed=7)


@pytest.fixture(scope="session")
def quantizer(golden) -> MokeyQuantizer:
    return MokeyQuantizer(golden)


@pytest.fixture(scope="session")
def tiny_config() -> TransformerConfig:
    """A very small but structurally complete transformer configuration."""
    return TransformerConfig(
        name="tiny",
        num_layers=2,
        hidden_size=32,
        num_heads=4,
        intermediate_size=64,
        vocab_size=128,
        max_position_embeddings=64,
    )


@pytest.fixture(scope="session")
def tiny_model(tiny_config):
    return build_model(tiny_config, task="classification", seed=3)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_model, tiny_config):
    """A labelled classification dataset for the tiny model."""
    inputs = generate_inputs(
        vocab_size=tiny_config.vocab_size,
        sequence_length=16,
        num_samples=24,
        task="classification",
        seed=11,
    )
    return label_with_model(tiny_model, inputs)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
