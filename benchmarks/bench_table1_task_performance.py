"""Table I: effect of Mokey quantization on task performance.

Driven by the campaign engine: the paper's eight (model, task) rows run as
an accuracy campaign (a spec with ``Enrichments(accuracy=True)``), whose
:class:`~repro.experiments.accuracy.FidelityResult` per row carries the FP
score, the weight-only and weight+activation scores, and the outlier
fractions.  The functional models are the architecture-preserving scaled
twins (see DESIGN.md §2); the scores are fidelity to each model's own FP
behaviour, so the FP column is 100 by construction and the quantized
columns show the degradation — the paper's "Err" quantity.
"""

from conftest import PAPER_WORKLOAD_SPECS, TINY_MODE

from repro.analysis.fidelity import table1_rows
from repro.analysis.reporting import format_table
from repro.experiments import AxisGrid, CampaignSpec, Enrichments, ExecutionPolicy, run_spec

# Tiny mode keeps one row per task family (classification, qa) instead of
# all eight Table I rows.
BENCH_WORKLOADS = (
    (PAPER_WORKLOAD_SPECS[0], PAPER_WORKLOAD_SPECS[3]) if TINY_MODE else PAPER_WORKLOAD_SPECS
)

SPEC = CampaignSpec(
    name="table1",
    axes=AxisGrid(workloads=tuple(BENCH_WORKLOADS), designs=("mokey",)),
    enrichments=Enrichments(accuracy=True),
    execution=ExecutionPolicy(executor="serial"),
)


def _compute():
    return run_spec(SPEC)


def test_table1_task_performance(benchmark):
    campaign = benchmark.pedantic(_compute, rounds=1, iterations=1)
    rows = table1_rows(campaign, scheme="mokey")
    assert len(rows) == len(BENCH_WORKLOADS)

    headers = [
        "model/task", "metric", "FP", "W-only err", "W+A err",
        "W OT% (paper)", "A OT% (paper)",
    ]
    printed = []
    for row in rows:
        printed.append([
            f"{row['model']}/{row['task']}",
            row["metric"],
            f"{row['fp_score']:.1f}",
            f"{row['weight_only_err']:.2f} ({row['paper_weight_only_err']})",
            f"{row['weight_activation_err']:.2f} ({row['paper_weight_activation_err']})",
            f"{row['weight_outlier_pct']:.1f} ({row['paper_weight_outlier_pct']})",
            f"{row['activation_outlier_pct']:.1f} ({row['paper_activation_outlier_pct']})",
        ])
    print("\nTable I — task performance under Mokey quantization (fidelity to FP model)")
    print(format_table(headers, printed))

    for record in campaign:
        fidelity = record.fidelity
        label = (record.scenario.model, record.scenario.task)
        # FP fidelity is perfect by construction.
        assert fidelity.fp_score >= 99.0, label
        # Weight-only quantization degrades fidelity only mildly.
        assert fidelity.weight_only_score >= 70.0, label
        # Adding activation quantization costs a little more but stays close.
        assert fidelity.weight_activation_score >= 55.0, label
        assert fidelity.weight_activation_score <= fidelity.fp_score + 1e-9
        # Outlier fractions in the paper's ballpark: ~1-3% weights, <10% acts.
        assert 0.2 < 100 * fidelity.weight_outlier_fraction < 6.0, label
        assert 100 * fidelity.activation_outlier_fraction < 15.0, label
        # 4-bit dictionary quantization compresses FP32 weights by >6x.
        assert fidelity.compression_ratio > 6.0, label
