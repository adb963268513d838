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

Each join — the ``fidelity`` of :mod:`~repro.experiments.accuracy` and
the ``measured`` stats of :mod:`~repro.experiments.measured` — is one row
of the ``_JOINS`` table: its ``Enrichments`` switch and settings, its memo
key, its evaluator and its store getter.  One resolver
(:func:`_resolve_join`), one memo in :class:`ResultCache` keyed
``(join, key, settings digest)`` and one ``store``/``put`` call per record
serve both, so a join is memoised, settings-guarded and persisted the
same way whichever it is.
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
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.accelerator.metrics import SimulationResult
from repro.accelerator.simulator import AcceleratorSimulator
from repro.experiments.accuracy import (
    DEFAULT_ACCURACY_SETTINGS,
    FidelityResult,
    JoinSettings,
    UnsupportedSchemeError,
    accuracy_key,
    evaluate_fidelity,
    supported_accuracy_schemes,
    supports_accuracy,
)
from repro.experiments.measured import (
    DEFAULT_MEASUREMENT_SETTINGS,
    MeasuredStats,
    evaluate_measured,
    measured_key,
)
from repro.experiments.scenario import Scenario

if TYPE_CHECKING:  # spec imports this module
    from repro.experiments.spec import Enrichments, ExecutionPolicy

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


class _Join(NamedTuple):
    """One per-key result a campaign joins to its hardware records."""

    #: The :class:`~repro.experiments.spec.Enrichments` switch that turns it on.
    flag: str
    #: The ``Enrichments`` field holding its settings (``None`` = the default).
    settings_field: str
    default_settings: JoinSettings
    #: The memo key of a scenario: one evaluation serves every scenario sharing it.
    key_of: Callable[[Scenario], Tuple[Any, ...]]
    #: ``evaluate(*key, settings=...)`` -> a result stamped with ``settings_digest``.
    evaluate: Callable[..., Any]
    #: The store method returning the stored result of a scenario.
    store_get: str


#: Every join, by the record field and store ``put`` keyword it fills.  The
#: evaluators are looked up at call time, so a rebound module global (a
#: memo wrapped around ``evaluate_fidelity``) is honoured.
_JOINS: Dict[str, _Join] = {
    "fidelity": _Join(
        flag="accuracy",
        settings_field="accuracy_settings",
        default_settings=DEFAULT_ACCURACY_SETTINGS,
        key_of=accuracy_key,
        evaluate=lambda *key, settings: evaluate_fidelity(*key, settings=settings),
        store_get="get_fidelity",
    ),
    "measured": _Join(
        flag="measured",
        settings_field="measurement_settings",
        default_settings=DEFAULT_MEASUREMENT_SETTINGS,
        key_of=measured_key,
        evaluate=lambda *key, settings: evaluate_measured(*key, settings=settings),
        store_get="get_measured",
    ),
}


def _evaluate_key(name: str, key: Tuple[Any, ...], settings: JoinSettings) -> Any:
    """Evaluate one memo key of join ``name`` (module-level, so it pickles)."""
    return _JOINS[name].evaluate(*key, settings=settings)


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
        # Join memo, keyed by (join name, memo key, settings digest): one
        # evaluation serves every grid point sharing the key, but never a
        # run under different settings.
        self._joined: Dict[Tuple[str, Tuple[Any, ...], str], Any] = {}
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

    def store(self, scenario: Scenario, result: SimulationResult, **joined: Any) -> None:
        """Record ``result`` plus its joined results (``fidelity=``, ``measured=``).

        Memoises each joined result under its memo key and writes all of
        them through to the backing store in one ``put``.
        """
        memo = {
            (name, _JOINS[name].key_of(scenario), value.settings_digest): value
            for name, value in joined.items()
            if value is not None
        }
        with self._lock:
            self._results[scenario] = result
            self._joined.update(memo)
        if self._store is not None:
            self._store.put(scenario, result, **joined)

    def lookup_joined(
        self, name: str, scenario: Scenario, key: Tuple[Any, ...], settings_digest: str
    ) -> Any:
        """Join ``name``'s cached result for ``scenario``, or ``None``.

        Resolution order: the in-memory memo by ``key`` (one evaluation
        serves every grid point sharing the key), then the backing store
        by scenario.  A result only hits when its settings digest matches
        ``settings_digest``: one evaluated under different settings is
        never served.
        """
        return self._memo_then_store(
            self._joined,
            (name, key, settings_digest),
            lambda: getattr(self._store, _JOINS[name].store_get)(scenario),
            lambda value: value.settings_digest == settings_digest,
        )

    def clear(self) -> None:
        """Reset the in-memory cache (not the backing store)."""
        with self._lock:
            self._results.clear()
            self._joined.clear()


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
    name: str,
    scenarios: Sequence[Scenario],
    cache: ResultCache,
    policy: "ExecutionPolicy",
    settings: Optional[JoinSettings],
) -> Tuple[Dict[Scenario, Any], int]:
    """Join ``name``'s result for every scenario, evaluating each unique key once.

    Collects the unique memo keys, serves what the cache/store already
    holds under ``settings``, evaluates the rest in one batch and fans the
    outcomes back out per scenario.  Only the process executor fans the
    batch out, and only past one key: evaluation is NumPy work sharing one
    quantizer, so threads would just contend on the GIL.  Returns the
    per-scenario mapping plus how many keys were actually evaluated.
    """
    join = _JOINS[name]
    settings = settings or join.default_settings
    digest = settings.digest()
    keys = {scenario: join.key_of(scenario) for scenario in scenarios}
    resolved: Dict[Tuple[Any, ...], Any] = {}
    pending: List[Tuple[Any, ...]] = []
    for scenario, key in keys.items():
        if key in resolved or key in pending:
            continue
        hit = cache.lookup_joined(name, scenario, key, digest)
        if hit is not None:
            resolved[key] = hit
        else:
            pending.append(key)
    task = functools.partial(_evaluate_key, name, settings=settings)
    if policy.executor == "process" and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=policy.max_workers) as pool:
            resolved.update(zip(pending, pool.map(task, pending)))
    else:
        resolved.update((key, task(key)) for key in pending)
    return {scenario: resolved[key] for scenario, key in keys.items()}, len(pending)


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

    scenarios = list(scenarios)
    active = [name for name, join in _JOINS.items() if getattr(enrichments, join.flag)]
    if "fidelity" in active:
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
    joins: Dict[str, Dict[Scenario, Any]] = {name: {} for name in _JOINS}
    evaluated = dict.fromkeys(_JOINS, 0)
    for name in active:
        settings = getattr(enrichments, _JOINS[name].settings_field)
        joins[name], evaluated[name] = _resolve_join(
            name, list(cached_flags), cache, policy, settings
        )

    outcomes = _stream_pending(pending, policy.executor, policy.max_workers, policy.chunksize)
    total = len(scenarios)
    completed = simulated = cached_count = 0
    emitted: set = set()
    try:
        for scenario in scenarios:
            joined = {name: by_scenario.get(scenario) for name, by_scenario in joins.items()}
            if scenario in emitted or cached_flags[scenario]:
                # A cache hit, or a later duplicate of an in-run scenario
                # reusing the first record's result: both count as reuse.
                result, cached = resolved[scenario], True
                if active and scenario not in emitted:
                    # One store call carrying every join: a joint campaign
                    # appends a single upgrade line per record, not one
                    # per join.
                    cache.store(scenario, result, **joined)
            else:
                result, cached = next(outcomes), False
                resolved[scenario] = result
                cache.store(scenario, result, **joined)
                if write_store is not None:
                    write_store.put(scenario, result, **joined)
            record = ScenarioRecord(scenario=scenario, result=result, cached=cached, **joined)
            if cached:
                cached_count += 1
            else:
                simulated += 1
            emitted.add(scenario)
            completed += 1
            yield record, CampaignProgress(
                completed=completed,
                total=total,
                simulated=simulated,
                cached=cached_count,
                store_key=scenario_key(scenario),
                fidelity_evaluated=evaluated["fidelity"],
                measured_evaluated=evaluated["measured"],
            )
    finally:
        outcomes.close()
