"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section: it computes the measured series/rows with this reproduction's
models, prints them next to the paper's reported values where applicable,
and asserts the qualitative shape (orderings, trends, crossovers) that the
paper's conclusion rests on.  Run with::

    pytest benchmarks/ --benchmark-only

Absolute cycle counts, energies and task scores are not expected to match
the paper (synthetic models and analytical hardware models — see DESIGN.md
and EXPERIMENTS.md); the shapes are.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.accelerator.gobo_accel import gobo_design
from repro.accelerator.mokey_accel import mokey_design
from repro.accelerator.simulator import AcceleratorSimulator
from repro.accelerator.tensor_cores import tensor_cores_design
from repro.accelerator.workloads import paper_workloads
from repro.core.golden_dictionary import generate_golden_dictionary
from repro.core.model_quantizer import MokeyModelQuantizer
from repro.core.quantizer import MokeyQuantizer
from repro.experiments import AxisGrid, CampaignSpec, ResultCache, run_spec
from repro.transformer.model_zoo import PAPER_MODELS

KB = 1024
MB = 1024 * 1024
# The buffer-capacity sweep of Figures 9-15.
BUFFER_SWEEP = (256 * KB, 512 * KB, 1 * MB, 2 * MB, 4 * MB)

# Tiny mode (REPRO_BENCH_TINY=1) shrinks the sample-heavy functional
# experiments so the whole suite smoke-runs in a few seconds; the
# campaign grids and every qualitative assertion are unchanged.  Used by
# tests/test_bench_smoke.py and the CI benchmark-smoke job.
TINY_MODE = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")

# The paper's Table I (model, task, sequence length) pairs as campaign
# workload specs.
PAPER_WORKLOAD_SPECS = tuple((m, t, s) for (m, t, s, _head) in PAPER_MODELS)

# Where the perf trajectory lands.  The ``bench_perf_*.py`` benchmarks
# merge their measurements into this JSON so simulator/engine throughput
# is visible (and comparable) PR-over-PR; override with REPRO_BENCH_PERF.
# Tiny-mode runs land in a sibling file so a smoke run never overwrites
# the committed full-shape measurements.
REPO_ROOT = Path(__file__).resolve().parent.parent
_DEFAULT_PERF_NAME = "BENCH_PERF.tiny.json" if TINY_MODE else "BENCH_PERF.json"
BENCH_PERF_PATH = Path(os.environ.get("REPRO_BENCH_PERF", REPO_ROOT / _DEFAULT_PERF_NAME))


def _blas_environment() -> dict:
    """The BLAS/threading context GEMM-heavy measurements depend on.

    Engine throughput is a function of the library NumPy's ``@`` lowers
    to and of how many threads that library may use, so both are stamped
    next to the numbers: a BENCH_PERF diff across machines (or across an
    ``OMP_NUM_THREADS`` change) should show *why* the floors moved.
    """
    env: dict = {
        "cpu_count": os.cpu_count(),
        "thread_env": {
            name: os.environ.get(name)
            for name in (
                "OMP_NUM_THREADS",
                "MKL_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "NUMEXPR_NUM_THREADS",
            )
        },
    }
    try:
        config = np.show_config(mode="dicts")
    except Exception:  # pragma: no cover - numpy < 1.25 or exotic builds
        config = None
    if isinstance(config, dict):
        blas = {}
        for library, info in (config.get("Build Dependencies") or {}).items():
            if library in ("blas", "lapack") and isinstance(info, dict):
                blas[library] = {
                    key: info[key]
                    for key in ("name", "version", "openblas configuration")
                    if info.get(key)
                }
        if blas:
            env["numpy_blas"] = blas
    return env


def _torch_environment() -> dict:
    """Torch version + device, stamped only when a bench imported torch.

    Checking ``sys.modules`` (rather than importing) keeps the stamp
    truthful: torch appears in the environment exactly when the torch
    backend actually produced a section in this run, and NumPy-only runs
    never pay the import.
    """
    torch = sys.modules.get("torch")
    if torch is None:
        return {}
    try:
        cuda = bool(torch.cuda.is_available())
        env = {
            "torch": {
                "version": str(torch.__version__),
                "device": "cuda" if cuda else "cpu",
            }
        }
        if cuda:
            env["torch"]["cuda_device"] = str(torch.cuda.get_device_name(0))
        return env
    except Exception:  # pragma: no cover - exotic torch builds
        return {"torch": {"version": str(getattr(torch, "__version__", "unknown"))}}


def record_perf(section: str, payload: dict) -> None:
    """Merge one benchmark section into ``BENCH_PERF.json``.

    Each ``bench_perf_*`` test owns one section; the file accumulates the
    sections of a run plus an environment stamp, so successive runs (and
    successive PRs) can be diffed for regressions.  Tiny-mode runs are
    stamped as such and should not overwrite a committed full run.
    """
    data: dict = {}
    if BENCH_PERF_PATH.exists():
        try:
            data = json.loads(BENCH_PERF_PATH.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            data = {}
    data["environment"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "tiny_mode": TINY_MODE,
        **_blas_environment(),
        **_torch_environment(),
    }
    data[section] = payload
    BENCH_PERF_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


@pytest.fixture(scope="session")
def golden():
    """The Golden Dictionary (full 50,000-sample build; smaller in tiny mode)."""
    if TINY_MODE:
        return generate_golden_dictionary(num_samples=5_000, num_repeats=1)
    return generate_golden_dictionary()


@pytest.fixture(scope="session")
def mokey_quantizer(golden):
    return MokeyQuantizer(golden)


@pytest.fixture(scope="session")
def model_quantizer(golden):
    return MokeyModelQuantizer(golden)


@pytest.fixture(scope="session")
def simulators():
    """Simulators for the three accelerator designs."""
    return {
        "tensor-cores": AcceleratorSimulator(tensor_cores_design()),
        "gobo": AcceleratorSimulator(gobo_design()),
        "mokey": AcceleratorSimulator(mokey_design()),
    }


@pytest.fixture(scope="session")
def workloads():
    """The eight model/task workloads of the paper's evaluation."""
    return {wl.name: wl for wl in paper_workloads()}


@pytest.fixture(scope="session")
def campaign_cache():
    """One result cache shared by every campaign-driven benchmark."""
    return ResultCache()


@pytest.fixture(scope="session")
def paper_campaign(campaign_cache):
    """Paper workloads x (Tensor Cores, GOBO, Mokey) x buffer sweep."""
    axes = AxisGrid(
        workloads=PAPER_WORKLOAD_SPECS,
        designs=("tensor-cores", "gobo", "mokey"),
        buffer_bytes=BUFFER_SWEEP,
    )
    return run_spec(CampaignSpec(axes=axes), cache=campaign_cache)


@pytest.fixture(scope="session")
def compression_campaign(campaign_cache):
    """Paper workloads x Tensor Cores +/- Mokey compression x buffer sweep."""
    axes = AxisGrid(
        workloads=PAPER_WORKLOAD_SPECS,
        designs=(
            "tensor-cores",
            "tensor-cores+mokey-oc",
            "tensor-cores+mokey-oc+on",
        ),
        buffer_bytes=BUFFER_SWEEP,
    )
    return run_spec(CampaignSpec(axes=axes), cache=campaign_cache)


def geomean(values) -> float:
    values = np.asarray(list(values), dtype=np.float64)
    return float(np.exp(np.log(values).mean()))
