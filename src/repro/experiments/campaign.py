"""Campaign engine: cached streaming simulation and fan-out.

:func:`_stream_core` is the single sweep loop behind
:func:`repro.experiments.spec.iter_campaign` and
:func:`~repro.experiments.spec.run_spec`, the only ways to run a
campaign.  It takes the scenario list a
:class:`~repro.experiments.spec.CampaignSpec` expands to, simulates each —
fanning out over the policy's executor (``serial``, ``thread`` or
``process``) and deduplicating through a :class:`ResultCache` keyed by
scenario, optionally layered over an on-disk
:class:`~repro.experiments.store.ArtifactStore` — and *streams*
``(ScenarioRecord, CampaignProgress)`` events as scenarios complete, with
each record appended to the backing store the moment it exists.  A killed
campaign therefore resumes from the store by skipping already-persisted
keys, bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.accelerator.metrics import SimulationResult
from repro.accelerator.simulator import AcceleratorSimulator
from repro.experiments.accuracy import (
    DEFAULT_ACCURACY_SETTINGS,
    AccuracyKey,
    AccuracySettings,
    FidelityResult,
    UnsupportedSchemeError,
    accuracy_key,
    evaluate_fidelity,
    supported_accuracy_schemes,
    supports_accuracy,
)
from repro.experiments.measured import (
    DEFAULT_MEASUREMENT_SETTINGS,
    MeasuredKey,
    MeasuredStats,
    MeasurementSettings,
    evaluate_measured,
    measured_key,
)
from repro.experiments.scenario import Scenario

if TYPE_CHECKING:  # spec imports this module
    from repro.experiments.spec import Enrichments, ExecutionPolicy

_DEFAULT_SETTINGS_DIGEST = DEFAULT_ACCURACY_SETTINGS.digest()
_DEFAULT_MEASUREMENT_DIGEST = DEFAULT_MEASUREMENT_SETTINGS.digest()

__all__ = [
    "EXECUTORS",
    "CampaignProgress",
    "ResultCache",
    "ScenarioRecord",
    "CampaignResult",
    "run_scenario",
]

#: Valid ``ExecutionPolicy.executor`` choices.
EXECUTORS = ("serial", "thread", "process")


class ResultCache:
    """Thread-safe in-process cache of simulation results keyed by scenario.

    When constructed with a backing
    :class:`~repro.experiments.store.ArtifactStore`, lookups that miss in
    memory fall through to disk and stores write through, making the
    cache persistent across processes.  :meth:`clear` drops only the
    in-memory state; the backing store is managed separately
    (``repro campaign clean``).
    """

    def __init__(self, store: Optional[Any] = None) -> None:
        self._results: Dict[Scenario, SimulationResult] = {}
        # Fidelity memo, keyed by (model, task, scheme) + settings digest:
        # one quantization + evaluation serves every seq/batch/design/buffer
        # point of a grid, but never a run under different settings.
        self._fidelity: Dict[Tuple[AccuracyKey, str], FidelityResult] = {}
        # Measured-stats memo, keyed by (model, seq, batch) + settings
        # digest: one layer execution serves every design/scheme/buffer
        # point of a grid.
        self._measured: Dict[Tuple[MeasuredKey, str], MeasuredStats] = {}
        self._lock = threading.Lock()
        self._store = store

    @property
    def backing_store(self) -> Optional[Any]:
        return self._store

    def query(self, *args: Any, **kwargs: Any) -> Any:
        """Run a pushdown query against the backing store.

        Passes through to the store backend's
        :meth:`~repro.experiments.store.StoreBackend.query` (filters /
        ``group_by`` / ``order_by`` / ``limit``), which evaluates it
        server-side when the backend supports it (SQLite).  Raises
        ``ValueError`` when the cache has no backing store — the
        in-memory maps are keyed for exact lookup, not scans.
        """
        if self._store is None:
            raise ValueError("ResultCache.query needs a backing store (ResultCache(store=...))")
        return self._store.query(*args, **kwargs)

    def __len__(self) -> int:
        return len(self._results)

    def __contains__(self, scenario: Scenario) -> bool:
        with self._lock:
            if scenario in self._results:
                return True
        return self._store is not None and scenario in self._store

    def _memo_then_store(
        self,
        memo: Dict[Any, Any],
        memo_key: Any,
        from_store: Callable[[], Any],
        accept: Callable[[Any], bool] = lambda value: True,
    ) -> Any:
        """``memo[memo_key]``, else the store's value (memoised) if accepted."""
        with self._lock:
            value = memo.get(memo_key)
        if value is not None or self._store is None:
            return value
        value = from_store()
        if value is None or not accept(value):
            return None
        with self._lock:
            memo[memo_key] = value
        return value

    def lookup(self, scenario: Scenario) -> Optional[SimulationResult]:
        """The cached result: in memory, then in the backing store."""
        return self._memo_then_store(
            self._results, scenario, lambda: self._store.get(scenario)
        )

    def store(
        self,
        scenario: Scenario,
        result: SimulationResult,
        fidelity: Optional[FidelityResult] = None,
        measured: Optional[MeasuredStats] = None,
    ) -> None:
        memo_key = (
            None if fidelity is None else (accuracy_key(scenario), fidelity.settings_digest)
        )
        measured_memo_key = (
            None if measured is None else (measured_key(scenario), measured.settings_digest)
        )
        with self._lock:
            self._results[scenario] = result
            if memo_key is not None:
                self._fidelity[memo_key] = fidelity
            if measured_memo_key is not None:
                self._measured[measured_memo_key] = measured
        if self._store is not None:
            self._store.put(scenario, result, fidelity=fidelity, measured=measured)

    def lookup_fidelity(
        self,
        scenario: Scenario,
        key: Optional[AccuracyKey] = None,
        settings_digest: Optional[str] = None,
    ) -> Optional[FidelityResult]:
        """The cached fidelity for ``scenario``, or ``None``.

        Resolution order: the in-memory memo by :func:`accuracy_key` (one
        evaluation serves every seq/batch/buffer point sharing the key),
        then the backing store by scenario.  A result only hits when its
        settings digest matches ``settings_digest`` — stored fidelity from
        a differently-parameterised evaluation is never served.
        """
        key = accuracy_key(scenario) if key is None else key
        if settings_digest is None:
            settings_digest = _DEFAULT_SETTINGS_DIGEST
        return self._memo_then_store(
            self._fidelity,
            (key, settings_digest),
            lambda: self._store.get_fidelity(scenario),
            lambda fidelity: fidelity.settings_digest == settings_digest,
        )

    def lookup_measured(
        self,
        scenario: Scenario,
        key: Optional[MeasuredKey] = None,
        settings_digest: Optional[str] = None,
    ) -> Optional[MeasuredStats]:
        """The cached measured stats for ``scenario``, or ``None``.

        Resolution order mirrors :meth:`lookup_fidelity`: the in-memory
        memo by :func:`~repro.experiments.measured.measured_key`, then the
        backing store by scenario; a result only hits when its settings
        digest matches.
        """
        key = measured_key(scenario) if key is None else key
        if settings_digest is None:
            settings_digest = _DEFAULT_MEASUREMENT_DIGEST
        return self._memo_then_store(
            self._measured,
            (key, settings_digest),
            lambda: self._store.get_measured(scenario),
            lambda measured: measured.settings_digest == settings_digest,
        )

    def clear(self) -> None:
        """Reset the in-memory cache (not the backing store)."""
        with self._lock:
            self._results.clear()
            self._fidelity.clear()
            self._measured.clear()


@dataclass
class ScenarioRecord:
    """One structured campaign outcome.

    Attributes:
        scenario: The grid point that produced the result.
        result: The full simulation result.
        cached: Whether the result came from the cache without simulating.
        fidelity: Task-fidelity outcome joined by an accuracy campaign
            (``None`` for hardware-only runs).
        measured: Measured index-domain operation counts joined by a
            ``with_measured`` campaign (``None`` otherwise).
    """

    scenario: Scenario
    result: SimulationResult
    cached: bool = False
    fidelity: Optional[FidelityResult] = None
    measured: Optional[MeasuredStats] = None

    @property
    def workload_name(self) -> str:
        return self.result.workload_name

    @property
    def design_name(self) -> str:
        return self.result.design_name

    def to_dict(self) -> Dict[str, object]:
        """Full nested representation; inverse of :meth:`from_dict`.

        For the flat tabular form used by reporting, see :meth:`to_row`.
        """
        return {
            "scenario": self.scenario.to_dict(),
            "result": self.result.to_dict(),
            "cached": bool(self.cached),
            "fidelity": None if self.fidelity is None else self.fidelity.to_dict(),
            "measured": None if self.measured is None else self.measured.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioRecord":
        """Rebuild a record from :meth:`to_dict` output, ignoring unknown keys."""
        raw_fidelity = data.get("fidelity")
        raw_measured = data.get("measured")
        return cls(
            scenario=Scenario.from_dict(data.get("scenario") or {}),
            result=SimulationResult.from_dict(data.get("result") or {}),
            cached=bool(data.get("cached", False)),
            fidelity=None if raw_fidelity is None else FidelityResult.from_dict(raw_fidelity),
            measured=None if raw_measured is None else MeasuredStats.from_dict(raw_measured),
        )

    def to_row(self) -> Dict[str, object]:
        """Flatten scenario + headline metrics for tabular reporting.

        Fidelity and measured-stats columns are appended only when the
        record carries them, so hardware-only reports keep their column
        set.  The ``measured_*`` columns sit next to the analytic
        ``gaussian_pairs`` / ``outlier_pairs`` the scheme's compute detail
        reports (both are per encoder layer).
        """
        row = self._hardware_row()
        if self.measured is not None:
            m = self.measured
            row.update(
                {
                    "measured_gaussian_pairs": m.gaussian_pairs,
                    "measured_outlier_pairs": m.outlier_pairs,
                    "measured_outlier_pct": 100.0 * m.outlier_pair_fraction,
                    "measured_output_rms_err": m.output_rms_error,
                }
            )
        if self.fidelity is not None:
            f = self.fidelity
            row.update(
                {
                    "fidelity_metric": f.metric,
                    "fp_score": f.fp_score,
                    "weight_only_score": f.weight_only_score,
                    "weight_only_err": f.weight_only_error,
                    "weight_activation_score": (
                        "" if f.weight_activation_score is None else f.weight_activation_score
                    ),
                    "weight_activation_err": (
                        "" if f.weight_activation_error is None else f.weight_activation_error
                    ),
                    "weight_outlier_pct": 100.0 * f.weight_outlier_fraction,
                    "activation_outlier_pct": 100.0 * f.activation_outlier_fraction,
                    "weight_compression": f.compression_ratio,
                }
            )
        return row

    def _hardware_row(self) -> Dict[str, object]:
        return {
            "model": self.scenario.model,
            "task": self.scenario.task,
            "sequence_length": self.scenario.resolved_sequence_length,
            "batch_size": self.scenario.batch_size,
            "scheme": self.scenario.scheme or self.result.design_name,
            "design": self.scenario.design,
            "buffer_bytes": self.scenario.buffer_bytes,
            "activation_buffer_fraction": self.scenario.activation_buffer_fraction,
            "workload": self.workload_name,
            "compute_cycles": self.result.compute_cycles,
            "memory_cycles": self.result.memory_cycles,
            "total_cycles": self.result.total_cycles,
            "traffic_bytes": self.result.traffic_bytes,
            "energy_joules": self.result.energy.total,
            "area_mm2": self.result.area.total,
        }


@dataclass(frozen=True)
class CampaignProgress:
    """Where a streaming campaign stands after one record was emitted.

    Attributes:
        completed: Records emitted so far (including this one).
        total: Records the campaign will emit in total.
        simulated: How many of the completed records were freshly simulated.
        cached: How many were cache/store hits (or in-run duplicates).
        store_key: The content-addressed store key of the record just
            emitted (see :func:`~repro.experiments.store.scenario_key`);
            the key a resumed campaign would skip on.
        fidelity_evaluated: Fidelity evaluations the campaign ran (joins
            are resolved up front, so this is constant across events).
        measured_evaluated: Measured-layer executions the campaign ran.
    """

    completed: int
    total: int
    simulated: int
    cached: int
    store_key: str
    fidelity_evaluated: int = 0
    measured_evaluated: int = 0

    @property
    def fraction(self) -> float:
        return self.completed / self.total if self.total else 1.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping of the progress counters.

        The structured form the campaign service's workers report over
        their queue and the HTTP status endpoint serves back, so remote
        pollers see exactly what a local ``iter_campaign`` consumer sees.
        """
        return {
            "completed": self.completed,
            "total": self.total,
            "simulated": self.simulated,
            "cached": self.cached,
            "store_key": self.store_key,
            "fidelity_evaluated": self.fidelity_evaluated,
            "measured_evaluated": self.measured_evaluated,
        }

    def __str__(self) -> str:
        return (
            f"[{self.completed}/{self.total}] "
            f"{self.simulated} simulated, {self.cached} cached"
        )


class CampaignResult:
    """The records of one campaign plus cache statistics.

    Iterable over :class:`ScenarioRecord` in submission order; ``filter``
    and ``result`` select records by scenario fields (plus the virtual
    ``workload`` key matching the workload label).
    """

    def __init__(
        self,
        records: Sequence[ScenarioRecord],
        cache: ResultCache,
        fidelity_evaluated: int = 0,
        measured_evaluated: int = 0,
    ) -> None:
        self.records = list(records)
        self.cache = cache
        #: How many fidelity evaluations this campaign actually ran (the
        #: rest were memo/store hits or scenarios sharing an accuracy key).
        self.fidelity_evaluated = fidelity_evaluated
        #: How many measured-layer executions this campaign actually ran.
        self.measured_evaluated = measured_evaluated

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    @staticmethod
    def _matches(record: ScenarioRecord, criteria: Dict[str, object]) -> bool:
        for key, wanted in criteria.items():
            if key == "workload":
                value = record.workload_name
            else:
                value = getattr(record.scenario, key)
            if value != wanted:
                return False
        return True

    def filter(self, **criteria) -> "CampaignResult":
        """Records whose scenario (or workload label) matches ``criteria``."""
        matching = [r for r in self.records if self._matches(r, criteria)]
        return CampaignResult(matching, self.cache)

    def result(self, **criteria) -> SimulationResult:
        """The unique simulation result matching ``criteria``."""
        matching = [r for r in self.records if self._matches(r, criteria)]
        if len(matching) != 1:
            raise LookupError(
                f"expected exactly one record for {criteria}, found {len(matching)}"
            )
        return matching[0].result

    def to_dicts(self) -> List[Dict[str, object]]:
        """Flat reporting rows (one per record); see :meth:`ScenarioRecord.to_row`."""
        return [record.to_row() for record in self.records]

    @property
    def simulated_count(self) -> int:
        """How many records were actually simulated (not cache/store hits)."""
        return sum(1 for record in self.records if not record.cached)


def run_scenario(scenario: Scenario) -> SimulationResult:
    """Simulate one scenario (no caching)."""
    return AcceleratorSimulator(scenario.build_design()).simulate(
        scenario.build_workload(),
        scenario.buffer_bytes,
        scenario.activation_buffer_fraction,
    )


def _stream_pending(
    pending: Sequence[Scenario],
    executor: str,
    max_workers: Optional[int],
    chunksize: Optional[int],
) -> Iterator[SimulationResult]:
    """Yield ``pending``'s results lazily, in order, under the chosen executor.

    ``map`` on both pool executors returns results in submission order as
    they become available, so the consumer can emit record ``k`` while
    ``k+1`` is still simulating.  Closing the generator early (a killed
    campaign) cancels every not-yet-started scenario and returns as soon
    as the in-flight ones (at most the pool width, or one process chunk)
    finish; their unconsumed results are discarded, not persisted.  With
    the serial executor nothing past the last consumed scenario is ever
    simulated — the executor of choice when interruption loss must be
    zero.
    """
    if executor == "serial":
        for scenario in pending:
            yield run_scenario(scenario)
        return
    if executor == "thread":
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            yield from pool.map(run_scenario, pending)
        return
    # Process: the simulator path is pure CPU-bound Python, so only real
    # processes escape the GIL.  Chunked dispatch amortises the per-item
    # pickling; map() preserves submission order, so records stay
    # deterministic regardless of which worker finishes first.
    if chunksize is None:
        workers = max_workers or os.cpu_count() or 1
        chunksize = max(1, len(pending) // (workers * 4))
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        yield from pool.map(run_scenario, pending, chunksize=chunksize)


def _evaluate_accuracy_key(
    key: AccuracyKey, settings: Optional[AccuracySettings] = None
) -> FidelityResult:
    """Evaluate one fidelity memo key (module-level, so it pickles)."""
    model, task, scheme = key
    return evaluate_fidelity(model, task, scheme, settings=settings)


def _evaluate_measured_key(
    key: MeasuredKey, settings: Optional[MeasurementSettings] = None
) -> MeasuredStats:
    """Measure one layer-execution memo key (module-level, so it pickles)."""
    model, sequence_length, batch_size = key
    return evaluate_measured(model, sequence_length, batch_size, settings=settings)


def _evaluate_pending_fidelity(
    pending: Sequence[AccuracyKey],
    executor: str,
    max_workers: Optional[int],
    settings: Optional[AccuracySettings],
) -> List[FidelityResult]:
    """Evaluate ``pending`` accuracy keys, preserving order.

    Only the process executor fans out: fidelity evaluation is pure-Python
    NumPy work sharing one Mokey model quantizer, so threads would just
    contend on the GIL (and on the quantizer's per-tensor state).
    """
    task = functools.partial(_evaluate_accuracy_key, settings=settings)
    if executor == "process" and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(task, pending))
    return [task(key) for key in pending]


def _validate_accuracy_support(scenarios: Sequence[Scenario]) -> None:
    """Fail fast (before any simulation) on schemes fidelity cannot evaluate.

    Unknown models and tasks never get here: spec validation has already
    checked every name on the grid against the registries.
    """
    schemes = {accuracy_key(scenario)[2] for scenario in scenarios}
    unsupported = sorted(s for s in schemes if not supports_accuracy(s))
    if unsupported:
        raise UnsupportedSchemeError(
            f"scheme(s) {', '.join(repr(s) for s in unsupported)} have no accuracy-side "
            f"numerics evaluator (schemes supporting accuracy campaigns: "
            f"{', '.join(supported_accuracy_schemes())})"
        )


def _resolve_join(
    scenarios: Sequence[Scenario],
    key_of: Callable[[Scenario], Any],
    lookup: Callable[[Scenario, Any], Optional[Any]],
    evaluate_pending: Callable[[List[Any]], List[Any]],
) -> Tuple[Dict[Scenario, Any], int]:
    """Resolve one joined quantity for every scenario, each unique key once.

    The shared skeleton of the fidelity and measured-stats joins: collect
    the unique memo keys, serve what the cache/store already holds, hand
    the rest to ``evaluate_pending`` in one batch, and fan the outcomes
    back out per scenario.  Returns the per-scenario mapping plus how many
    keys were actually evaluated.
    """
    keys: Dict[Scenario, Any] = {}
    for scenario in scenarios:
        if scenario not in keys:
            keys[scenario] = key_of(scenario)
    resolved: Dict[Any, Any] = {}
    pending: List[Any] = []
    for scenario, key in keys.items():
        if key in resolved or key in pending:
            continue
        hit = lookup(scenario, key)
        if hit is not None:
            resolved[key] = hit
        else:
            pending.append(key)
    if pending:
        resolved.update(zip(pending, evaluate_pending(pending)))
    return {scenario: resolved[key] for scenario, key in keys.items()}, len(pending)


def _resolve_fidelities(
    scenarios: Sequence[Scenario],
    cache: ResultCache,
    executor: str,
    max_workers: Optional[int],
    settings: Optional[AccuracySettings],
) -> Tuple[Dict[Scenario, FidelityResult], int]:
    """Fidelity for every scenario, evaluating each unique accuracy key once.

    Assumes scheme support was validated by :func:`_validate_accuracy_support`.
    """
    settings_digest = (settings or DEFAULT_ACCURACY_SETTINGS).digest()
    return _resolve_join(
        scenarios,
        key_of=accuracy_key,
        lookup=lambda scenario, key: cache.lookup_fidelity(
            scenario, key=key, settings_digest=settings_digest
        ),
        evaluate_pending=lambda pending: _evaluate_pending_fidelity(
            pending, executor, max_workers, settings
        ),
    )


def _resolve_measured(
    scenarios: Sequence[Scenario],
    cache: ResultCache,
    executor: str,
    max_workers: Optional[int],
    settings: Optional[MeasurementSettings],
) -> Tuple[Dict[Scenario, MeasuredStats], int]:
    """Measured stats for every scenario, one layer execution per unique key."""
    settings_digest = (settings or DEFAULT_MEASUREMENT_SETTINGS).digest()

    def evaluate_pending(pending: List[MeasuredKey]) -> List[MeasuredStats]:
        # Layer execution is NumPy/BLAS-heavy; only real processes help,
        # and only when more than one key needs measuring.
        task = functools.partial(_evaluate_measured_key, settings=settings)
        if executor == "process" and len(pending) > 1:
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                return list(pool.map(task, pending))
        return [task(key) for key in pending]

    return _resolve_join(
        scenarios,
        key_of=measured_key,
        lookup=lambda scenario, key: cache.lookup_measured(
            scenario, key=key, settings_digest=settings_digest
        ),
        evaluate_pending=evaluate_pending,
    )


def _stream_core(
    scenarios: Sequence[Scenario],
    cache: ResultCache,
    enrichments: "Enrichments",
    policy: "ExecutionPolicy",
    write_store: Optional[Any],
) -> Iterator[Tuple[ScenarioRecord, CampaignProgress]]:
    """Simulate every scenario, streaming ``(record, progress)`` events.

    Joins (fidelity, measured stats) are resolved up front — they depend
    only on scenario fields, one evaluation per unique memo key — and the
    hardware simulations then stream through the policy's executor in
    submission order.  Each record is appended to the cache's backing
    store (and to ``write_store``, the write-only store of a
    ``resume=False`` policy) the moment its simulation completes, *before*
    it is yielded, so a consumer that stops mid-grid (kill, exception,
    ``break``) leaves every emitted record persisted; a later run over
    the same store resumes by skipping those keys, and its final record
    set is bit-identical to an uninterrupted run.

    Scenarios already present in ``cache`` (including duplicates within
    ``scenarios``) are not re-simulated; their records are marked
    ``cached=True``.  The caller has validated the spec, so executor and
    registry names are known good.
    """
    from repro.experiments.store import scenario_key  # local: store is a sibling

    executor, max_workers = policy.executor, policy.max_workers
    with_accuracy, with_measured = enrichments.accuracy, enrichments.measured
    scenarios = list(scenarios)
    if with_accuracy:
        _validate_accuracy_support(scenarios)

    resolved: Dict[Scenario, SimulationResult] = {}
    cached_flags: Dict[Scenario, bool] = {}
    pending: List[Scenario] = []
    for scenario in scenarios:
        if scenario in cached_flags:
            continue
        hit = cache.lookup(scenario)
        if hit is not None:
            resolved[scenario] = hit
            cached_flags[scenario] = True
        else:
            cached_flags[scenario] = False
            pending.append(scenario)

    # Joins depend only on scenario fields, never on simulation results,
    # so they resolve before anything simulates: every yielded record is
    # complete, and a consumer that stops early loses no join work for
    # records it never asked for.
    fidelities: Dict[Scenario, FidelityResult] = {}
    fidelity_evaluated = 0
    measured: Dict[Scenario, MeasuredStats] = {}
    measured_evaluated = 0
    unique_scenarios = list(cached_flags)
    if with_accuracy:
        fidelities, fidelity_evaluated = _resolve_fidelities(
            unique_scenarios, cache, executor, max_workers, enrichments.accuracy_settings
        )
    if with_measured:
        measured, measured_evaluated = _resolve_measured(
            unique_scenarios, cache, executor, max_workers, enrichments.measurement_settings
        )

    outcomes = _stream_pending(pending, executor, max_workers, policy.chunksize)
    total = len(scenarios)
    completed = simulated = cached_count = 0
    emitted: Dict[Scenario, ScenarioRecord] = {}
    try:
        for scenario in scenarios:
            if scenario in emitted:
                # A later duplicate of an in-run scenario reuses the first
                # record's result, so it counts as a cache reuse.
                record = ScenarioRecord(
                    scenario=scenario,
                    result=emitted[scenario].result,
                    cached=True,
                    fidelity=fidelities.get(scenario),
                    measured=measured.get(scenario),
                )
                cached_count += 1
            elif cached_flags[scenario]:
                result = resolved[scenario]
                if with_accuracy or with_measured:
                    # One store call carrying every join: a joint campaign
                    # appends a single upgrade line per record, not one
                    # per join.
                    cache.store(
                        scenario,
                        result,
                        fidelity=fidelities.get(scenario),
                        measured=measured.get(scenario),
                    )
                record = ScenarioRecord(
                    scenario=scenario,
                    result=result,
                    cached=True,
                    fidelity=fidelities.get(scenario),
                    measured=measured.get(scenario),
                )
                cached_count += 1
            else:
                result = next(outcomes)
                resolved[scenario] = result
                cache.store(
                    scenario,
                    result,
                    fidelity=fidelities.get(scenario),
                    measured=measured.get(scenario),
                )
                if write_store is not None:
                    write_store.put(
                        scenario,
                        result,
                        fidelity=fidelities.get(scenario),
                        measured=measured.get(scenario),
                    )
                record = ScenarioRecord(
                    scenario=scenario,
                    result=result,
                    cached=False,
                    fidelity=fidelities.get(scenario),
                    measured=measured.get(scenario),
                )
                simulated += 1
            emitted[scenario] = record
            completed += 1
            yield record, CampaignProgress(
                completed=completed,
                total=total,
                simulated=simulated,
                cached=cached_count,
                store_key=scenario_key(scenario),
                fidelity_evaluated=fidelity_evaluated,
                measured_evaluated=measured_evaluated,
            )
    finally:
        outcomes.close()
