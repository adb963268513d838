"""Golden-regression suite over the full scheme × design × model grid.

``tests/goldens.json`` pins a content digest of the complete
:class:`~repro.accelerator.metrics.SimulationResult` for every registered
quantization scheme × accelerator design × model-zoo configuration (on
MNLI at the default 512 KB buffer).  Any numeric drift in the simulator,
the schemes, or the workload models — or a scheme/design/model added or
removed from the registries — fails this suite.

``tests/goldens_accuracy.json`` pins the accuracy half the same way: a
content digest of the full
:class:`~repro.experiments.accuracy.FidelityResult` for every row of the
paper's Table I grid (the eight (model, task) pairs under Mokey at the
default :data:`~repro.experiments.accuracy.DEFAULT_ACCURACY_SETTINGS`).
Any drift in the quantization numerics, the functional twins, the task
suite or the metrics fails it.

After an **intentional** change to the numerics, regenerate both files
with::

    PYTHONPATH=src python tests/test_goldens.py --write

commit them together with the change that caused it (the diff of the
goldens files documents the blast radius), and bump the store's
``SCHEMA_VERSION`` so stale stores re-simulate instead of silently
serving pre-change results.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

from repro.accelerator.metrics import SimulationResult
from repro.experiments import (
    AxisGrid,
    CampaignSpec,
    Enrichments,
    ExecutionPolicy,
    Scenario,
    fidelity_digest,
    run_spec,
)
from repro.registry import DESIGNS, SCHEMES
from repro.transformer.model_zoo import MODEL_CONFIGS, PAPER_MODELS

GOLDENS_PATH = Path(__file__).parent / "goldens.json"
ACCURACY_GOLDENS_PATH = Path(__file__).parent / "goldens_accuracy.json"
KB = 1024
GOLDEN_BUFFER_BYTES = 512 * KB
GOLDEN_TASK = "mnli"


def golden_spec() -> CampaignSpec:
    """Every registered scheme × design × model-zoo config, one buffer point."""
    return CampaignSpec(axes=AxisGrid(
        models=tuple(sorted(MODEL_CONFIGS)),
        tasks=(GOLDEN_TASK,),
        schemes=SCHEMES.names(),
        designs=DESIGNS.names(),
        buffer_bytes=(GOLDEN_BUFFER_BYTES,),
    ))


def golden_label(scenario: Scenario) -> str:
    return f"{scenario.model}|{scenario.design}|{scenario.scheme}"


def result_digest(result: SimulationResult) -> str:
    """Stable content digest of the full result (all fields, full precision)."""
    blob = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def compute_goldens() -> Dict[str, str]:
    campaign = run_spec(golden_spec())
    return {golden_label(r.scenario): result_digest(r.result) for r in campaign}


def load_goldens() -> Dict[str, str]:
    with GOLDENS_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def accuracy_golden_spec() -> CampaignSpec:
    """The paper's Table I grid: eight (model, task) pairs under Mokey."""
    return CampaignSpec(
        axes=AxisGrid(
            workloads=[(model, task, seq) for (model, task, seq, _head) in PAPER_MODELS],
            designs=("mokey",),
            buffer_bytes=(GOLDEN_BUFFER_BYTES,),
        ),
        enrichments=Enrichments(accuracy=True),
        execution=ExecutionPolicy(executor="serial"),
    )


def accuracy_golden_label(scenario: Scenario) -> str:
    return f"{scenario.model}|{scenario.task}|mokey"


def compute_accuracy_goldens() -> Dict[str, str]:
    campaign = run_spec(accuracy_golden_spec())
    return {
        accuracy_golden_label(r.scenario): fidelity_digest(r.fidelity) for r in campaign
    }


def load_accuracy_goldens() -> Dict[str, str]:
    with ACCURACY_GOLDENS_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def test_goldens_cover_current_registries():
    """The goldens file names exactly the current scheme/design/model grid."""
    expected = {golden_label(s) for s in golden_spec().scenarios()}
    recorded = set(load_goldens())
    missing = sorted(expected - recorded)
    stale = sorted(recorded - expected)
    assert not missing and not stale, (
        f"goldens out of sync with the registries — missing: {missing[:5]}, "
        f"stale: {stale[:5]}; regenerate with "
        f"`PYTHONPATH=src python tests/test_goldens.py --write`"
    )


def test_goldens_no_numeric_drift():
    """Every simulated digest matches the checked-in golden exactly."""
    recorded = load_goldens()
    measured = compute_goldens()
    drifted = sorted(
        label
        for label, digest in measured.items()
        if recorded.get(label) != digest
    )
    assert not drifted, (
        f"{len(drifted)} of {len(measured)} golden results drifted "
        f"(first: {drifted[:5]}); if the numeric change is intentional, "
        f"regenerate with `PYTHONPATH=src python tests/test_goldens.py --write`"
    )


def test_accuracy_goldens_cover_table1_grid():
    """The accuracy goldens file names exactly the Table I grid."""
    expected = {accuracy_golden_label(s) for s in accuracy_golden_spec().scenarios()}
    recorded = set(load_accuracy_goldens())
    missing = sorted(expected - recorded)
    stale = sorted(recorded - expected)
    assert not missing and not stale, (
        f"accuracy goldens out of sync with the Table I grid — missing: "
        f"{missing[:5]}, stale: {stale[:5]}; regenerate with "
        f"`PYTHONPATH=src python tests/test_goldens.py --write`"
    )


def test_accuracy_goldens_no_fidelity_drift():
    """Every Table I fidelity digest matches the checked-in golden exactly."""
    recorded = load_accuracy_goldens()
    measured = compute_accuracy_goldens()
    drifted = sorted(
        label
        for label, digest in measured.items()
        if recorded.get(label) != digest
    )
    assert not drifted, (
        f"{len(drifted)} of {len(measured)} accuracy goldens drifted "
        f"(first: {drifted[:5]}); if the numeric change is intentional, "
        f"regenerate with `PYTHONPATH=src python tests/test_goldens.py --write` "
        f"and bump the store SCHEMA_VERSION"
    )


def _write_goldens() -> None:
    goldens = compute_goldens()
    with GOLDENS_PATH.open("w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(goldens)} goldens to {GOLDENS_PATH}")
    accuracy_goldens = compute_accuracy_goldens()
    with ACCURACY_GOLDENS_PATH.open("w", encoding="utf-8") as handle:
        json.dump(accuracy_goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(accuracy_goldens)} accuracy goldens to {ACCURACY_GOLDENS_PATH}")


if __name__ == "__main__":
    import sys

    if "--write" in sys.argv:
        _write_goldens()
    else:
        print(__doc__)
        raise SystemExit("pass --write to regenerate tests/goldens.json")
