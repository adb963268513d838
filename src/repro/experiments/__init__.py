"""Scenario/campaign sweep engine.

The paper's evaluation is a grid: models × tasks × sequence lengths ×
batch sizes × quantization schemes × accelerator designs × buffer sizes.
This package owns that grid so benchmarks, examples and future services
share one sweep loop instead of each re-implementing it:

* :class:`~repro.experiments.scenario.Scenario` — one frozen, hashable
  grid point, resolvable to a workload and an accelerator design;
* :class:`~repro.experiments.campaign.ResultCache` — in-process,
  thread-safe result cache keyed by scenario, shared across campaigns and
  optionally layered over an on-disk store;
* :class:`~repro.experiments.store.ArtifactStore` — content-addressed
  JSONL store persisting results across processes, so repeated campaigns
  only simulate new grid points; one of two pluggable
  :class:`~repro.experiments.store.StoreBackend` implementations
  (``open_store(root, backend=...)``) next to the indexed, WAL-mode
  :class:`~repro.experiments.store_sqlite.SqliteStoreBackend`, which adds
  server-side ``query()`` pushdown and concurrent shard writers;
* :class:`~repro.experiments.spec.CampaignSpec` — the declarative front
  door and the only way to run a campaign: a frozen, JSON-round-trippable
  experiment description (an :class:`~repro.experiments.spec.AxisGrid`
  of axis values, with explicit workload triples for non-cross-product
  grids like the paper's Table I, + enrichments + an execution policy
  choosing ``serial | thread | process`` fan-out and the store) validated
  against the unified registries (:mod:`repro.registry`);
* :func:`~repro.experiments.spec.iter_campaign` — streams
  ``(ScenarioRecord, CampaignProgress)`` events as scenarios complete,
  appending each to the store incrementally so a killed campaign resumes
  bit-identically by skipping persisted keys;
* :func:`~repro.experiments.spec.run_spec` — the batch convenience:
  drains the stream and returns a
  :class:`~repro.experiments.campaign.CampaignResult` of
  :class:`~repro.experiments.campaign.ScenarioRecord` rows consumable by
  :mod:`repro.analysis.reporting`;
* :mod:`repro.experiments.accuracy` — the accuracy half of the paper's
  joint claim: ``Enrichments(accuracy=True)`` joins a
  :class:`~repro.experiments.accuracy.FidelityResult` (task fidelity to
  the FP model, outlier fractions, compression) to every record, memoised
  per ``(model, task, scheme)`` and persisted through the store;
* :mod:`repro.experiments.measured` — measured index-domain operation
  counts: ``Enrichments(measured=True)`` executes one encoder
  layer of each workload through the vectorized index-domain engine and
  joins a :class:`~repro.experiments.measured.MeasuredStats` (real
  Gaussian/outlier pair counts, next to the schemes' analytic ones) to
  every record, memoised per ``(model, seq, batch)`` and persisted
  through the store.

Both joins are rows of one table in :mod:`repro.experiments.campaign`:
one resolver evaluates each unique memo key once (fanning out over the
process executor), one :class:`~repro.experiments.campaign.ResultCache`
memo serves a result only under the settings digest it was produced with,
and one store write carries every join of a record.

The ``repro`` CLI (``python -m repro campaign ...``) drives this package
from the command line.

Usage::

    from repro.experiments import AxisGrid, CampaignSpec, run_spec

    campaign = run_spec(CampaignSpec(axes=AxisGrid(
        workloads=(("bert-large", "squad", None), ("bert-base", "mnli", None)),
        designs=("tensor-cores", "mokey"),
        buffer_bytes=(256 * 1024, 1024 * 1024),
        batch_sizes=(1, 8),
    )))
    mokey = campaign.result(design="mokey", model="bert-base",
                            batch_size=1, buffer_bytes=1024 * 1024)
    baseline = campaign.result(design="tensor-cores", model="bert-base",
                               batch_size=1, buffer_bytes=1024 * 1024)
    print(mokey.speedup_over(baseline))

New designs register in the ``designs`` registry
(``get_registry("designs").register(name, factory)``); new numerics
methods register in the ``schemes`` registry (see :mod:`repro.schemes`)
and are immediately sweepable via the ``schemes=`` axis.
"""

from repro.experiments.accuracy import (
    DEFAULT_ACCURACY_SETTINGS,
    AccuracySettings,
    FidelityResult,
    UnsupportedSchemeError,
    accuracy_key,
    accuracy_scheme_for,
    evaluate_fidelity,
    fidelity_digest,
    register_fidelity_evaluator,
    supported_accuracy_schemes,
    supports_accuracy,
)
from repro.experiments.measured import (
    DEFAULT_MEASUREMENT_SETTINGS,
    MeasuredStats,
    MeasurementSettings,
    evaluate_measured,
    measured_digest,
    measured_key,
)
from repro.experiments.scenario import Scenario
from repro.experiments.campaign import (
    EXECUTORS,
    CampaignProgress,
    CampaignResult,
    ResultCache,
    ScenarioRecord,
    run_scenario,
)
from repro.experiments.store import (
    SCHEMA_VERSION,
    ArtifactStore,
    StoreBackend,
    StoreEntry,
    detect_store_backend,
    entry_digest,
    migrate_store,
    open_store,
    parse_filter,
    scenario_key,
    store_digest,
)

# Importing the SQLite backend registers it in STORES; it must
# come after ``store`` (it imports the protocol from there), which Python
# guarantees by importing the parent package first.
from repro.experiments.store_sqlite import SqliteStoreBackend
from repro.experiments.spec import (
    AxisGrid,
    CampaignSpec,
    Enrichments,
    ExecutionPolicy,
    iter_campaign,
    run_spec,
    shard_spec,
)

__all__ = [
    "DEFAULT_ACCURACY_SETTINGS",
    "DEFAULT_MEASUREMENT_SETTINGS",
    "MeasuredStats",
    "MeasurementSettings",
    "evaluate_measured",
    "measured_digest",
    "measured_key",
    "AccuracySettings",
    "FidelityResult",
    "UnsupportedSchemeError",
    "accuracy_key",
    "accuracy_scheme_for",
    "evaluate_fidelity",
    "fidelity_digest",
    "register_fidelity_evaluator",
    "supported_accuracy_schemes",
    "supports_accuracy",
    "Scenario",
    "EXECUTORS",
    "CampaignProgress",
    "CampaignResult",
    "ResultCache",
    "ScenarioRecord",
    "run_scenario",
    "SCHEMA_VERSION",
    "ArtifactStore",
    "SqliteStoreBackend",
    "StoreBackend",
    "StoreEntry",
    "detect_store_backend",
    "entry_digest",
    "migrate_store",
    "open_store",
    "parse_filter",
    "scenario_key",
    "store_digest",
    "AxisGrid",
    "CampaignSpec",
    "Enrichments",
    "ExecutionPolicy",
    "iter_campaign",
    "run_spec",
    "shard_spec",
]
