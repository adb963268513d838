"""Figure 4 / Eq. 3-6: index-domain MAC decomposition.

Measures the index-domain dot product against the decoded (centroid-domain)
dot product and reports the breakdown into the SoI / SoA / SoW / PoM terms,
plus the operation mix (narrow additions vs outlier MACs) that motivates
the hardware design.  The layer-scale tests exercise the same arithmetic
through the vectorized engine (scalar vs vectorized on a whole GEMM) and
show the measured operation mix flowing into the accelerator simulator
next to the scheme's analytic counts.
"""

import numpy as np
import pytest

from conftest import TINY_MODE, Float64IndexDomainEngine

from repro.accelerator.mokey_accel import mokey_design
from repro.accelerator.simulator import AcceleratorSimulator
from repro.accelerator.workloads import model_workload
from repro.analysis.reporting import format_table
from repro.core.index_compute import (
    IndexDomainEngine,
    VectorizedIndexDomainEngine,
    index_domain_dot,
)
from repro.transformer.index_model import execute_model

VECTOR_LENGTH = 1024 if TINY_MODE else 4096
# Layer-scale GEMM for the scalar-vs-vectorized comparison; the scalar
# reference is O(M*N) Python dots, so tiny mode shrinks the output plane.
GEMM_SHAPE = (16, 128, 24) if TINY_MODE else (64, 768, 96)
MEASURED_SEQ = 16 if TINY_MODE else 32


def _build_operands(mokey_quantizer, n=VECTOR_LENGTH):
    rng = np.random.default_rng(42)
    weights = rng.normal(0, 0.02, n)
    weights[rng.choice(n, int(0.015 * n), replace=False)] = (
        rng.choice([-1, 1], int(0.015 * n)) * 0.25
    )
    activations = rng.normal(0.3, 1.8, n)
    activations[rng.choice(n, int(0.045 * n), replace=False)] = (
        rng.choice([-1, 1], int(0.045 * n)) * 40.0
    )
    return (
        mokey_quantizer.quantize(activations, "activation"),
        mokey_quantizer.quantize(weights, "weight"),
    )


def test_fig04_index_domain_decomposition(benchmark, mokey_quantizer):
    aq, wq = _build_operands(mokey_quantizer)
    result = benchmark(lambda: index_domain_dot(aq, wq))

    reference = float(
        aq.dictionary.decode(aq.encoded, apply_fixed_point=False)
        @ wq.dictionary.decode(wq.encoded, apply_fixed_point=False)
    )
    rows = [[name, f"{value:.6f}"] for name, value in result.terms().items()]
    rows.append(["total (index domain)", f"{result.value:.6f}"])
    rows.append(["reference (centroid domain)", f"{reference:.6f}"])
    print("\nFigure 4 — index-domain decomposition of one output activation")
    print(format_table(["term", "value"], rows))
    print(
        f"operation mix: {result.stats.gaussian_pairs} narrow index additions, "
        f"{result.stats.outlier_pairs} outlier MACs, "
        f"{result.stats.post_processing_macs} post-processing MACs"
    )

    # Exactness of the decomposition (the paper's core arithmetic claim).
    assert result.value == pytest.approx(reference, rel=1e-9)
    # The bulk of the work is narrow additions; outlier MACs are <6% of pairs
    # and post-processing is a constant handful per output.
    assert result.stats.outlier_pairs < 0.08 * result.stats.total_pairs
    fixed_post_processing = result.stats.post_processing_macs - result.stats.outlier_pairs
    assert fixed_post_processing < 0.05 * result.stats.gaussian_pairs


def test_fig04_vectorized_engine_matches_scalar_at_gemm_scale(mokey_quantizer):
    """The vectorized engine reproduces the scalar engine on a whole GEMM:
    equal values to fp round-off (its float64 variant) and bit-identical
    operation statistics."""
    import time

    m, k, n = GEMM_SHAPE
    rng = np.random.default_rng(11)
    activations = rng.normal(0.3, 1.8, (m, k))
    flat = activations.ravel()
    picks = rng.choice(flat.size, max(1, int(0.045 * flat.size)), replace=False)
    flat[picks] = rng.choice([-1, 1], picks.size) * 40.0
    weights = rng.normal(0, 0.02, (k, n))
    aq = mokey_quantizer.quantize(activations, "activation")
    wq = mokey_quantizer.quantize(weights, "weight")

    started = time.perf_counter()
    scalar_values, scalar_stats = IndexDomainEngine(aq.dictionary, wq.dictionary).matmul(aq, wq)
    scalar_seconds = time.perf_counter() - started
    started = time.perf_counter()
    result = VectorizedIndexDomainEngine(aq.dictionary, wq.dictionary).matmul(aq, wq)
    vector_seconds = time.perf_counter() - started

    print(
        f"\nFigure 4 (layer scale) — {m}x{k} @ {k}x{n}: scalar {scalar_seconds:.2f}s, "
        f"vectorized {vector_seconds * 1e3:.1f} ms "
        f"({scalar_seconds / vector_seconds:.0f}x)"
    )
    reference = Float64IndexDomainEngine(aq.dictionary, wq.dictionary).matmul(aq, wq)
    assert np.allclose(scalar_values, reference.values, rtol=1e-9, atol=1e-8)
    assert result.stats == reference.stats == scalar_stats
    assert scalar_seconds / vector_seconds > 5.0  # loose; bench_perf asserts the real floor


def test_fig04_measured_operation_mix_flows_into_simulator(mokey_quantizer):
    """Measured layer stats land in the simulation detail next to the
    analytic (assumed-outlier-rate) counts the Mokey scheme reports."""
    measurement = execute_model(
        "bert-base", sequence_length=MEASURED_SEQ, num_layers=1, quantizer=mokey_quantizer
    )
    workload = model_workload("bert-base", sequence_length=MEASURED_SEQ)
    result = AcceleratorSimulator(mokey_design()).simulate(
        workload, 512 * 1024, measured_stats=measurement.stats
    )

    analytic_pairs = result.detail["gaussian_pairs"] + result.detail["outlier_pairs"]
    measured_pairs = result.detail["measured_gaussian_pairs"] + result.detail[
        "measured_outlier_pairs"
    ]
    analytic_fraction = result.detail["outlier_pairs"] / analytic_pairs
    measured_fraction = result.detail["measured_outlier_pair_fraction"]
    rows = [
        ["layer pairs", f"{analytic_pairs:.0f}", f"{measured_pairs:.0f}"],
        ["outlier pair fraction", f"{analytic_fraction:.4f}", f"{measured_fraction:.4f}"],
    ]
    print("\nFigure 4 — analytic vs measured operation mix (one encoder layer)")
    print(format_table(["quantity", "analytic", "measured"], rows))

    # Both models count the same pair population...
    assert measured_pairs == pytest.approx(analytic_pairs)
    # ... and the measured outlier rate lands in the regime the analytic
    # model assumes (same order of magnitude, small minority of pairs).
    assert 0.0 < measured_fraction < 0.2
    assert measurement.stats.total_pairs == workload.total_macs // workload.num_layers
