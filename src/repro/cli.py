"""``repro`` command-line interface.

Drives the campaign engine (:mod:`repro.experiments`) from the shell, with
results persisted to an on-disk :class:`~repro.experiments.store.ArtifactStore`
so repeated runs only simulate new grid points::

    repro campaign run --models bert-base bert-large --designs mokey \\
        --buffer-kb 256 512 --executor process
    repro campaign run --spec spec.json --progress
    repro campaign run --spec spec.json --designs mokey gobo   # flag overrides the spec
    repro campaign resume --spec spec.json   # skip already-persisted keys
    repro campaign run --paper-workloads --with-accuracy
    repro campaign run --models bert-base --with-measured-stats
    repro campaign report --design mokey --format csv
    repro campaign report --where "total_cycles<=1e9" --order-by energy_joules --top 10
    repro campaign report --group-by model design --order-by -count
    repro campaign list
    repro campaign clean --yes
    repro store import old-store      # load a legacy old-store/records.jsonl
    repro store export .repro-store > records.jsonl   # canonical JSONL
    repro store stats .repro-store   # counts/coverage without payloads
    repro serve-sim --schemes mokey-oc fp16 --rate 100 --requests 10000
    repro serve-sim --trace bursty --policy max-batch --max-batch 16 --slo-ms 50
    repro serve --port 8321 --workers 4       # campaign service daemon
    repro submit --spec spec.json --wait      # HTTP submit to the daemon
    repro status                              # all service jobs
    repro status campaign-0001                # one job, sharded progress
    repro results campaign-0001 --output out.ndjson
    repro cancel campaign-0001
    repro registry list              # the seven pluggable-axis registries
    repro registry list schemes      # one registry's entries, described
    repro table1                 # the paper's eight Table I fidelity rows
    repro table1 --joint         # fidelity next to speedup/energy (Table IV style)

(or ``python -m repro ...`` without installing the console script.)

The CLI is a front end to the declarative specs.  ``campaign run``,
``campaign resume`` and ``serve-sim`` each build one spec dict: the
``--spec FILE`` JSON object, or the spec's defaults when there is no
file.  Every flag the user gave is laid over its field — ``--models``
over ``axes.models``, ``--executor`` over ``execution.executor``,
``--rate`` over ``trace.rate_rps`` — and a flag left out leaves its field
alone.  :class:`~repro.experiments.spec.CampaignSpec` (or
:class:`~repro.serving.ServingSpec`) then validates the result, so a
flag and the same value in a spec file are accepted alike, or rejected
with the same one-line error.  :func:`main` is the one error boundary: a
handler's ``ValueError`` (registry misses and unsupported schemes
included), ``ServiceError`` or ``OSError`` becomes one ``error:`` line
on stderr and exit status 2.
Results stream: each scenario is appended to the store the moment it
completes, so an interrupted run (Ctrl-C, ``--limit``) is resumed by
``repro campaign resume`` — or simply re-running — with persisted keys
served from disk.

The store location is ``--store DIR``, the spec's execution policy, the
``REPRO_STORE`` environment variable, or ``./.repro-store`` in that order
of precedence.  The store is one SQLite database, so ``campaign
report``/``list`` filters, grouping, ordering and ``--top`` run inside
it instead of deserializing every record; ``repro store import``/``export``
convert to and from JSONL.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple, Union

from repro.analysis.fidelity import joint_rows, table1_rows
from repro.analysis.reporting import RECORD_FORMATS, format_records
from repro.experiments import (
    EXECUTORS,
    ArtifactStore,
    AxisGrid,
    CampaignSpec,
    Enrichments,
    ExecutionPolicy,
    ResultCache,
    ScenarioRecord,
    UnsupportedSchemeError,
    export_jsonl,
    import_jsonl,
    iter_campaign,
    parse_filter,
    run_spec,
)
from repro.experiments import SCHEMA_VERSION
from repro.registry import (
    DESIGNS,
    MODELS,
    POLICIES,
    TASKS,
    TRACES,
    RegistryError,
    get_registry,
    registry_kinds,
)
from repro.service import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    Coordinator,
    ServiceClient,
    ServiceError,
    make_server,
    run_daemon,
)
from repro.serving import ServingSpec, iter_serving
from repro.transformer.model_zoo import PAPER_MODELS

__all__ = ["main"]

KB = 1024

DEFAULT_STORE = ".repro-store"

#: The paper's Table I ``(model, task, sequence_length)`` pairs.
_PAPER_WORKLOADS = tuple((model, task, seq) for (model, task, seq, _head) in PAPER_MODELS)

#: Prefix of the ``dest`` of a flag that overlays a spec field.
_FIELD = "field:"

#: Spec fields whose flag is not in the field's units.
_TO_FIELD: Dict[str, Callable[[Any], Any]] = {
    "axes.buffer_bytes": lambda kbs: [kb * KB for kb in kbs],
    "buffer_bytes": lambda kb: kb * KB,
    "trace.params": dict,
}


def _default_store() -> str:
    return os.environ.get("REPRO_STORE", DEFAULT_STORE)


def _parse_sequence_length(value: str) -> Union[int, str, None]:
    """``"none"``/``"default"`` → task default; an integer → itself.

    Any other text reaches the spec as typed, and the spec's validation
    rejects it in one line (``... must be positive or None, got 'abc'``).
    """
    if value.lower() in ("none", "default"):
        return None
    try:
        return int(value)
    except ValueError:
        return value


def _parse_scheme(value: str) -> Optional[str]:
    """``"none"``/``"native"`` → the design's own scheme."""
    if value.lower() in ("none", "native"):
        return None
    return value


def _parse_trace_param(text: str) -> Tuple[str, str]:
    """``KEY=VALUE`` → ``(KEY, VALUE)``; the spec checks VALUE is a number."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"wants KEY=VALUE, got {text!r}")
    return key, value


def _field(parser: argparse.ArgumentParser, path: str, *flags: str, **kwargs: Any) -> None:
    """Add a flag that, when given, overrides the spec field at ``path``.

    ``path`` is dotted (``axes.models``, ``trace.rate_rps``).  A flag left
    out sets no attribute, so its field keeps the spec file's value, else
    the spec class's default.
    """
    parser.add_argument(*flags, dest=_FIELD + path, default=argparse.SUPPRESS, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mokey (ISCA 2022) reproduction: campaign runner and result store.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # Flag blocks shared by several commands (argparse ``parents=``).
    def shared(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    spec_file = shared()
    spec_file.add_argument(
        "--spec", metavar="FILE",
        help="start from this spec JSON file (a CampaignSpec for campaign run, "
        "a ServingSpec for serve-sim); each flag given overrides its field",
    )
    spec_required = shared()
    spec_required.add_argument("--spec", required=True, metavar="FILE", help="spec JSON file")
    pool = shared()
    _field(
        pool, "execution.executor", "--executor", metavar="EXECUTOR",
        help=f"how to fan the work out ({', '.join(EXECUTORS)}; all three are "
        "bit-identical, process is fastest for large grids; default: the "
        "spec's policy, else thread)",
    )
    _field(
        pool, "execution.max_workers", "--workers", type=int, metavar="N",
        help="pool width (default: automatic)",
    )
    grid_pool = shared(pool)
    _field(
        grid_pool, "execution.chunksize", "--chunksize", type=int, metavar="N",
        help="scenarios per process-pool work item (process executor only)",
    )
    progress = shared()
    progress.add_argument(
        "--progress", action="store_true",
        help="print one streaming progress line per completed scenario "
        "(serve-sim: per combo) to stderr",
    )
    no_store = shared()
    no_store.add_argument(
        "--no-store", action="store_true", help="do not read or write the artifact store"
    )
    store = shared()
    store.add_argument(
        "--store", metavar="DIR",
        help="artifact store directory (default: $REPRO_STORE or ./.repro-store)",
    )
    formats = shared()
    formats.add_argument(
        "--format", choices=RECORD_FORMATS, default="table",
        help="output format for the result records (default: table)",
    )
    formats.add_argument(
        "--output", metavar="FILE",
        help="write the formatted records to FILE instead of stdout",
    )
    url = shared()
    url.add_argument(
        "--url", metavar="URL",
        help="campaign-service URL (default: $REPRO_SERVICE_URL or "
        f"http://{DEFAULT_HOST}:{DEFAULT_PORT})",
    )

    campaign = commands.add_parser("campaign", help="run and inspect simulation campaigns")
    actions = campaign.add_subparsers(dest="action", required=True)

    run = actions.add_parser(
        "run",
        parents=[spec_file, grid_pool, progress, no_store, store, formats],
        help="simulate a scenario grid (store hits are not re-simulated)",
        description=(
            "Build a CampaignSpec from a declarative --spec file (or the "
            "defaults) with every flag given laid over its field, and "
            "simulate its scenario grid, streaming each result into the "
            "artifact store as it completes. Grid points already stored are "
            "served from disk, so an identical second run simulates nothing."
        ),
    )
    run.set_defaults(handler=_cmd_run)
    run.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="stop after N records (everything emitted stays persisted; "
        "'repro campaign resume' picks up where the run stopped)",
    )
    _field(
        run, "axes.models", "--models", nargs="+", metavar="MODEL",
        help=f"model-zoo axis (choices: {', '.join(MODELS.names())})",
    )
    _field(
        run, "axes.tasks", "--tasks", nargs="+", metavar="TASK",
        help=f"task axis (choices: {', '.join(TASKS.names())})",
    )
    _field(
        run,
        "axes.sequence_lengths",
        "--sequence-lengths",
        nargs="+",
        type=_parse_sequence_length,
        metavar="LEN",
        help="sequence-length axis; 'none' uses each task's default length",
    )
    _field(
        run, "axes.batch_sizes", "--batch-sizes", nargs="+", type=int, metavar="N",
        help="batch-size axis",
    )
    _field(
        run, "axes.schemes", "--schemes", nargs="+", type=_parse_scheme, metavar="SCHEME",
        help="quantization-scheme axis; 'none' keeps each design's own scheme",
    )
    _field(
        run, "axes.designs", "--designs", nargs="+", metavar="DESIGN",
        help=f"accelerator-design axis (choices: {', '.join(DESIGNS.names())})",
    )
    _field(
        run, "axes.buffer_bytes", "--buffer-kb", nargs="+", type=int, metavar="KB",
        help="on-chip buffer capacity axis, in KB",
    )
    _field(
        run, "axes.workloads", "--paper-workloads", action="store_const", const=_PAPER_WORKLOADS,
        help="use the paper's Table I (model, task, seq) pairs instead of "
        "crossing --models/--tasks/--sequence-lengths",
    )
    _field(
        run, "enrichments.accuracy", "--with-accuracy", action="store_true",
        help="also evaluate task fidelity per (model, task, scheme) and join it "
        "to each record (one quantization serves every seq/batch/buffer point)",
    )
    _field(
        run, "enrichments.measured", "--with-measured-stats", action="store_true",
        help="also execute one encoder layer per (model, seq, batch) through the "
        "vectorized index-domain engine and join the measured Gaussian/outlier "
        "operation counts to each record, next to the analytic ones",
    )
    _field(
        run, "enrichments.measurement_settings.scope", "--measured-scope", metavar="SCOPE",
        help="what the measured stats cover: 'layer' (one encoder layer, the "
        "default) or 'model' (the whole encoder stack, every layer's "
        "index-domain output feeding the next); implies --with-measured-stats",
    )

    resume = actions.add_parser(
        "resume",
        parents=[spec_required, grid_pool, progress, store, formats],
        help="resume an interrupted spec-driven campaign from its store",
        description=(
            "Re-run a CampaignSpec against its artifact store: scenarios whose "
            "keys are already persisted are served from disk, only the missing "
            "ones simulate, and the final record set is bit-identical to an "
            "uninterrupted run."
        ),
    )
    resume.set_defaults(handler=_cmd_resume)

    report = actions.add_parser(
        "report",
        parents=[store, formats],
        help="format stored records (filters/grouping push down into the store)",
        description=(
            "Render records from the artifact store, optionally filtered, "
            "grouped, ordered and limited. Filters, --group-by, --order-by "
            "and --top are pushed down into the store's SQLite database, "
            "over indexed columns, instead of deserializing every record."
        ),
    )
    report.set_defaults(handler=_cmd_report)
    report.add_argument("--model", default=None, help="only records for this model")
    report.add_argument("--task", default=None, help="only records for this task")
    report.add_argument("--design", default=None, help="only records for this design")
    report.add_argument(
        "--scheme", default=None,
        help="only records whose scheme column matches (the override if set, else the design name)",
    )
    report.add_argument("--batch-size", type=int, default=None, help="only this batch size")
    report.add_argument("--buffer-kb", type=int, default=None, help="only this buffer size (KB)")
    report.add_argument(
        "--where",
        action="append",
        default=[],
        metavar="FIELD<OP>VALUE",
        help="pushdown filter on a scenario axis or result metric, e.g. "
        "model=bert-base or 'total_cycles<=1e9' (ops: == != < <= > >=; "
        "repeatable, all must match)",
    )
    report.add_argument(
        "--group-by",
        nargs="+",
        default=None,
        metavar="AXIS",
        help="aggregate per distinct axis combination instead of listing "
        "records (columns: count, with_fidelity, with_measured, "
        "min/mean of total_cycles and energy_joules)",
    )
    report.add_argument(
        "--order-by",
        default=None,
        metavar="FIELD",
        help="order records (or grouped rows) by this field; descending via "
        "'~FIELD' or 'FIELD:desc' (or '-FIELD', which argparse only "
        "accepts in the equals form --order-by=-FIELD), e.g. "
        "--order-by ~total_cycles",
    )
    report.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="N",
        help="keep only the first N records (or grouped rows)",
    )

    list_cmd = actions.add_parser(
        "list",
        parents=[store],
        help="summarise the artifact store",
        description="Show record counts per model/design in the artifact store.",
    )
    list_cmd.set_defaults(handler=_cmd_list)

    clean = actions.add_parser(
        "clean",
        parents=[store],
        help="delete the artifact store's records",
        description="Delete every stored record (requires --yes).",
    )
    clean.set_defaults(handler=_cmd_clean)
    clean.add_argument("--yes", action="store_true", help="actually delete (no prompt)")

    store_cmd = commands.add_parser(
        "store",
        help="manage artifact stores (JSONL import/export, stats)",
        description=(
            "Operations on artifact-store directories themselves, "
            "independent of any campaign."
        ),
    )
    store_actions = store_cmd.add_subparsers(dest="action", required=True)
    import_cmd = store_actions.add_parser(
        "import",
        help="load DIR/records.jsonl (a JSONL log or legacy store) into the store at DIR",
        description=(
            "Read the JSONL log DIR/records.jsonl into the store at DIR. "
            "The last line per key wins and keeps the key's first position; "
            "torn, corrupt and wrong-schema lines are skipped and counted. "
            "Keys the store already holds merge under the normal upgrade "
            "semantics, so a second import stores nothing."
        ),
    )
    import_cmd.set_defaults(handler=_cmd_store_import)
    import_cmd.add_argument("dir", metavar="DIR", help="directory holding records.jsonl")
    export = store_actions.add_parser(
        "export",
        help="write the store at DIR to stdout as canonical JSONL",
        description=(
            "Write every readable record of the store at DIR to stdout, one "
            "canonical JSON object per line, in insertion order: the format "
            "'repro store import' reads."
        ),
    )
    export.set_defaults(handler=_cmd_store_export)
    export.add_argument("dir", metavar="DIR", help="store directory")
    stats = store_actions.add_parser(
        "stats",
        help="summarise a store without deserializing record payloads",
        description=(
            "Report a store directory's schema version, record count, "
            "fidelity/measured coverage and skipped-record count. Counts "
            "come from one grouped query inside SQLite, over indexed "
            "columns; no payloads are read."
        ),
    )
    stats.set_defaults(handler=_cmd_store_stats)
    stats.add_argument("path", metavar="PATH", help="store directory to summarise")
    stats.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (default: table)",
    )

    registry = commands.add_parser(
        "registry",
        help="inspect the pluggable-axis registries",
        description=(
            "The unified registry surface: every pluggable axis of the "
            "campaign grid and the serving simulator (schemes, designs, "
            "models, tasks, engines, arrival traces, "
            "batching policies) behind one "
            "names/get/describe protocol."
        ),
    )
    registry_actions = registry.add_subparsers(dest="action", required=True)
    registry_list = registry_actions.add_parser(
        "list",
        help="list all registries, or one registry's entries with descriptions",
    )
    registry_list.set_defaults(handler=_cmd_registry_list)
    registry_list.add_argument(
        "kind",
        nargs="?",
        default=None,
        help=f"registry kind to expand (choices: {', '.join(registry_kinds())})",
    )
    registry_list.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (default: table)",
    )

    table1 = commands.add_parser(
        "table1",
        parents=[pool, no_store, store, formats],
        help="reproduce the paper's Table I task-fidelity rows",
        description=(
            "Run the accuracy campaign over the paper's eight Table I "
            "(model, task) pairs — plus the Tensor Cores baseline for the "
            "joint view — and render the fidelity rows next to the paper's "
            "reported values. Results persist to the artifact store, so a "
            "second invocation simulates and evaluates nothing."
        ),
    )
    table1.set_defaults(handler=_cmd_table1)
    table1.add_argument(
        "--scheme",
        default="mokey",
        metavar="SCHEME",
        help="numerics scheme to evaluate (default: mokey)",
    )
    table1.add_argument(
        "--joint",
        action="store_true",
        help="render the joint accuracy-vs-speedup/energy view (Table IV style) "
        "instead of the Table I fidelity rows",
    )

    serve = commands.add_parser(
        "serve-sim",
        parents=[spec_file, pool, progress, no_store, store, formats],
        help="replay a seeded request-arrival trace through the batching "
        "simulator (p50/p99 latency, goodput, energy-per-request)",
        description=(
            "Generate a seeded arrival trace, form batches under a dynamic "
            "batching policy, and replay them against the accelerator "
            "cycle/energy models for every scheme × design combo. Batch "
            "size is emergent — each distinct formed size costs one real "
            "simulation, memoised through the artifact store, so a "
            "million-request trace needs only a handful of sims and a "
            "re-run over a warm store simulates nothing. With --spec, "
            "each flag given overrides its ServingSpec field."
        ),
    )
    serve.set_defaults(handler=_cmd_serve_sim)
    _field(
        serve, "model", "--model", metavar="MODEL",
        help=f"served model (choices: {', '.join(MODELS.names())})",
    )
    _field(serve, "task", "--task", metavar="TASK", help="served task")
    _field(
        serve, "sequence_length", "--sequence-length", type=_parse_sequence_length, metavar="LEN",
        help="request sequence length; 'none' (default) uses the task's",
    )
    _field(
        serve, "schemes", "--schemes", nargs="+", type=_parse_scheme, metavar="SCHEME",
        help="quantization schemes to compare; 'none' keeps each design's own",
    )
    _field(
        serve, "designs", "--designs", nargs="+", metavar="DESIGN",
        help=f"accelerator designs (choices: {', '.join(DESIGNS.names())})",
    )
    _field(
        serve, "buffer_bytes", "--buffer-kb", type=int, metavar="KB",
        help="on-chip buffer capacity per accelerator, in KB (default: 512)",
    )
    _field(
        serve, "trace.kind", "--trace", metavar="KIND",
        help=f"arrival-trace kind (choices: {', '.join(TRACES.names())})",
    )
    _field(
        serve, "trace.rate_rps", "--rate", type=float, metavar="RPS",
        help="mean request arrival rate, requests/second (default: 100)",
    )
    _field(
        serve, "trace.num_requests", "--requests", type=int, metavar="N",
        help="trace length in requests (default: 10000)",
    )
    _field(
        serve, "trace.seed", "--seed", type=int, metavar="SEED",
        help="trace RNG seed; same seed + spec = bit-identical metrics",
    )
    _field(
        serve,
        "trace.params",
        "--trace-param",
        action="append",
        type=_parse_trace_param,
        metavar="KEY=VALUE",
        help="trace-kind parameter, e.g. burst_factor=6 (repeatable; see "
        "'repro registry list traces')",
    )
    _field(
        serve, "policy.kind", "--policy", metavar="KIND",
        help=f"batching policy (choices: {', '.join(POLICIES.names())})",
    )
    _field(
        serve, "policy.max_batch", "--max-batch", type=int, metavar="N",
        help="largest batch a policy may form (default: 8)",
    )
    _field(
        serve, "policy.timeout_ms", "--timeout-ms", type=float, metavar="MS",
        help="timeout policy: longest the queue head waits for fill (default: 10)",
    )
    _field(
        serve, "num_accelerators", "--accelerators", type=int, metavar="N",
        help="identical engines served from one queue (default: 1)",
    )
    _field(
        serve, "slo_ms", "--slo-ms", type=float, metavar="MS",
        help="latency objective; goodput counts only requests within it",
    )

    serve_daemon = commands.add_parser(
        "serve",
        parents=[store],
        help="run the campaign service: an HTTP daemon executing submitted "
        "specs as sharded multi-worker jobs over one shared store",
        description=(
            "Start a long-running HTTP daemon (pure stdlib). Submitted "
            "CampaignSpecs are split into deterministic shards fanned out "
            "to a warm pool of worker processes (each started once per "
            "daemon), all appending to one shared store; "
            "content-addressed resume makes workers disposable — kill one "
            "mid-shard and another worker resumes its shard from the store, with "
            "final keys and record digests bit-identical to a "
            "single-process run. SIGTERM/SIGINT drains the worker pool "
            "and flushes in-flight shard writes before exiting."
        ),
    )
    serve_daemon.set_defaults(handler=_cmd_serve)
    serve_daemon.add_argument(
        "--host", default=DEFAULT_HOST, help=f"bind address (default: {DEFAULT_HOST})"
    )
    serve_daemon.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        metavar="PORT",
        help=f"bind port (default: {DEFAULT_PORT}; 0 picks an ephemeral port)",
    )
    serve_daemon.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="default shards, so busy pool workers, per campaign job "
        "(default: 2; a submission's own 'workers' wins)",
    )
    serve_daemon.add_argument(
        "--verbose", action="store_true", help="log each HTTP request to stderr"
    )

    submit = commands.add_parser(
        "submit",
        parents=[spec_required, url],
        help="submit a campaign/serving spec to a running campaign service",
        description=(
            "POST a CampaignSpec or ServingSpec JSON file to the daemon and "
            "print the job id (the kind is auto-detected from the payload). "
            "With --wait, block until the job is terminal and exit 0 only "
            "on completion."
        ),
    )
    submit.set_defaults(handler=_cmd_submit)
    submit.add_argument(
        "--kind",
        choices=("campaign", "serving"),
        default=None,
        help="force the job kind (default: auto-detected from the payload)",
    )
    submit.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for this job (default: the daemon's --workers)",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="poll until the job is terminal; exit 0 only if it completed",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="--wait deadline in seconds (default: 3600)",
    )

    status = commands.add_parser(
        "status",
        parents=[url],
        help="show campaign-service job progress (all jobs, or one in full)",
        description=(
            "Without an id: one summary line per submitted job. With an id: "
            "the job's full structured status as JSON — state, aggregate "
            "progress, and per-shard completed/total/restarts/pid."
        ),
    )
    status.set_defaults(handler=_cmd_service_status)
    status.add_argument(
        "id", nargs="?", default=None, metavar="ID", help="job id (default: list all)"
    )
    status.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="listing format when no id is given (default: table)",
    )

    results = commands.add_parser(
        "results",
        parents=[url],
        help="stream a service job's completed records as NDJSON",
        description=(
            "Fetch the job's completed records as newline-delimited JSON in "
            "deterministic grid order (not store insertion order), each "
            "line carrying the record's content key and digest. Usable "
            "mid-run: scenarios not yet persisted are simply absent."
        ),
    )
    results.set_defaults(handler=_cmd_results)
    results.add_argument("id", metavar="ID", help="job id")
    results.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the NDJSON lines to FILE instead of stdout",
    )

    cancel = commands.add_parser(
        "cancel",
        parents=[url],
        help="cancel a campaign-service job (persisted records remain)",
        description=(
            "Ask the job's workers to stop after their in-flight record. "
            "Everything already persisted stays in the store; resubmitting "
            "the same spec later resumes from it."
        ),
    )
    cancel.set_defaults(handler=_cmd_cancel)
    cancel.add_argument("id", metavar="ID", help="job id")

    return parser


def _emit(records_text: str, summary: str, output: Optional[str]) -> None:
    """Records go to ``--output`` (or stdout); the summary goes to the
    other stream so machine-readable output stays clean."""
    if output is not None:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(records_text + "\n")
        print(summary)
    else:
        print(records_text)
        print(summary, file=sys.stderr)


def _load_spec_dict(path: str) -> Dict[str, Any]:
    """The JSON object in spec file ``path`` (an ``OSError`` if unreadable)."""
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"spec {path!r} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"spec {path!r} must hold a JSON object")
    return payload


def _overlay(spec: Dict[str, Any], path: str, value: Any) -> None:
    """Set the field at dotted ``path`` in ``spec``, adding missing sections.

    A section that is present but not an object is left alone:
    ``from_dict`` rejects it in one line.
    """
    *sections, leaf = path.split(".")
    node = spec
    for key in sections:
        if not node.get(key):
            node[key] = {}
        node = node[key]
        if not isinstance(node, dict):
            return
    node[leaf] = value


def _spec_dict(args: argparse.Namespace, base: Dict[str, Any]) -> Dict[str, Any]:
    """The command's spec as one dict: the ``--spec`` file's object, else
    ``base``, with every flag the user gave laid over its field."""
    spec = _load_spec_dict(args.spec) if getattr(args, "spec", None) else base
    given = {
        dest[len(_FIELD):]: value
        for dest, value in vars(args).items()
        if dest.startswith(_FIELD)
    }
    if "enrichments.measurement_settings.scope" in given:
        given["enrichments.measured"] = True  # --measured-scope implies the join
    for path, value in given.items():
        _overlay(spec, path, _TO_FIELD.get(path, lambda flag: flag)(value))
    return spec


def _resolve_spec_store(
    args: argparse.Namespace, spec: Union[CampaignSpec, ServingSpec]
) -> Union[CampaignSpec, ServingSpec]:
    """Pin the spec's store: ``--store`` > spec policy > $REPRO_STORE > default.

    ``--no-store`` clears it.  The returned spec is what actually runs —
    the CLI drives ``iter_campaign`` purely through the execution policy,
    so the spec's ``resume`` field is honoured exactly as in the library.
    """
    if getattr(args, "no_store", False):
        return spec.with_execution(store=None)
    return spec.with_execution(store=args.store or spec.execution.store or _default_store())


def _campaign_spec(args: argparse.Namespace) -> CampaignSpec:
    """``campaign run``/``resume``'s spec: flags over the file, validated."""
    spec = CampaignSpec.from_dict(_spec_dict(args, {"name": "cli"}))
    return _resolve_spec_store(args, spec).validate()


def _open_existing_store(root: str) -> ArtifactStore:
    """Open the store at ``root``; a path with no store there is an error.

    The commands that read or clear a store take this check, so a
    mistyped path fails in one line instead of reading as an empty
    store.  A store exists while its database file does (a cleared
    store keeps an empty one).
    """
    store = ArtifactStore(root)
    if not store.path.exists():
        raise ValueError(f"no store at {store.path}")
    return store


def _cli_store(args: argparse.Namespace) -> str:
    """The command's ``--store`` path, else ``$REPRO_STORE`` or the default."""
    return args.store or _default_store()


def _drain(
    events: Generator[Tuple[Any, Any], None, None],
    label: Callable[[Any], str],
    limit: Optional[int] = None,
    progress_to_stderr: bool = False,
) -> Tuple[List[Any], Optional[Any]]:
    """Drain a ``(record, progress)`` stream, optionally stopping after ``limit``.

    Everything emitted before the stop is already persisted (the engines
    append to the store before yielding), which is exactly what makes
    ``--limit``/Ctrl-C resumable.
    """
    records: List[Any] = []
    last_progress = None
    try:
        for record, last_progress in events:
            records.append(record)
            if progress_to_stderr:
                print(f"{last_progress} {label(record)}", file=sys.stderr)
            if limit is not None and last_progress.completed >= limit:
                break
    finally:
        events.close()
    return records, last_progress


def _measured_noun(spec: CampaignSpec) -> str:
    """What one measured execution covered: a layer, or a whole model."""
    settings = spec.enrichments.measurement_settings
    return "models" if settings is not None and settings.scope == "model" else "layers"


def _run_summary(
    spec: CampaignSpec,
    records: List[ScenarioRecord],
    last_progress,
    elapsed: float,
) -> str:
    simulated = sum(1 for record in records if not record.cached)
    cached = len(records) - simulated
    # The CLI builds a fresh cache per invocation (inside iter_campaign),
    # so every cache hit on a resuming run came from the store; without a
    # store — or with resume=false — nothing does.
    store = spec.execution.store
    from_store = cached if store is not None and spec.execution.resume else 0
    total = last_progress.total if last_progress is not None else len(records)
    summary = (
        f"{len(records)} records: {simulated} simulated, "
        f"{cached} cache hits "
        f"({from_store} from store)"
        + (
            f", {last_progress.fidelity_evaluated} fidelity evaluated"
            if spec.enrichments.accuracy and last_progress is not None
            else ""
        )
        + (
            f", {last_progress.measured_evaluated} "
            f"{_measured_noun(spec)} measured"
            if spec.enrichments.measured and last_progress is not None
            else ""
        )
        + (f" (interrupted after {len(records)}/{total})" if len(records) < total else "")
        + f" in {elapsed:.2f}s [executor={spec.execution.executor}"
        + ("]" if store is None else f", store={store}]")
    )
    return summary


def _cmd_run(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit <= 0:
        raise ValueError(f"--limit must be positive, got {args.limit}")
    spec = _campaign_spec(args)
    started = time.perf_counter()
    records, last_progress = _drain(
        iter_campaign(spec), lambda record: record.scenario.label, args.limit, args.progress
    )
    elapsed = time.perf_counter() - started
    summary = _run_summary(spec, records, last_progress, elapsed)
    _emit(format_records([r.to_row() for r in records], args.format), summary, args.output)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    # Resuming is the whole point of this command, whatever the spec says.
    spec = _campaign_spec(args).with_execution(resume=True)
    already_stored = len(ArtifactStore(spec.execution.store))
    started = time.perf_counter()
    records, last_progress = _drain(
        iter_campaign(spec), lambda record: record.scenario.label,
        progress_to_stderr=args.progress,
    )
    elapsed = time.perf_counter() - started
    summary = (
        f"resumed from {already_stored} stored records: "
        + _run_summary(spec, records, last_progress, elapsed)
    )
    _emit(format_records([r.to_row() for r in records], args.format), summary, args.output)
    return 0


def _cmd_registry_list(args: argparse.Namespace) -> int:
    if args.kind is None:
        if args.format == "json":
            payload = {kind: list(get_registry(kind).names()) for kind in registry_kinds()}
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for kind in registry_kinds():
                registry = get_registry(kind)
                print(f"{kind} ({len(registry)}): {', '.join(registry.names())}")
        return 0
    registry = get_registry(args.kind)
    descriptions = registry.describe()
    if args.format == "json":
        print(json.dumps(descriptions, indent=2, sort_keys=True))
    else:
        print(f"{registry.kind} registry — {len(registry)} entries")
        width = max(len(name) for name in descriptions) if descriptions else 0
        for name, description in descriptions.items():
            print(f"  {name:<{width}}  {description}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    # The target rows run the scheme's numerics on the Mokey design with
    # fidelity; the Tensor Cores baseline rides along hardware-only (its
    # fidelity is never read) so --joint can pair speedup/energy.  An
    # unknown scheme, or one without an accuracy evaluator, fails in the
    # target campaign before anything simulates.
    execution = ExecutionPolicy.from_dict(_spec_dict(args, {}).get("execution", {}))
    target_spec = CampaignSpec(
        name="table1",
        axes=AxisGrid(
            workloads=_PAPER_WORKLOADS,
            schemes=(None if args.scheme == "mokey" else args.scheme,),
            designs=("mokey",),
        ),
        enrichments=Enrichments(accuracy=True),
        execution=execution,
    ).validate()
    store = None if args.no_store else ArtifactStore(_cli_store(args))
    cache = ResultCache(store=store)
    started = time.perf_counter()
    target = run_spec(target_spec, cache=cache)
    baseline = run_spec(
        CampaignSpec(
            name="table1-baseline",
            axes=AxisGrid(workloads=_PAPER_WORKLOADS, designs=("tensor-cores",)),
            execution=execution,
        ),
        cache=cache,
    )
    elapsed = time.perf_counter() - started
    records = list(target) + list(baseline)
    if args.joint:
        rows = joint_rows(records, target_design="mokey", baseline_design="tensor-cores")
    else:
        rows = table1_rows(records, scheme=args.scheme)
    simulated = target.simulated_count + baseline.simulated_count
    view = "joint accuracy-vs-efficiency" if args.joint else "Table I fidelity"
    summary = (
        f"{len(rows)} {view} rows ({simulated} simulated, "
        f"{target.fidelity_evaluated} fidelity evaluated) in {elapsed:.2f}s"
        + ("" if store is None else f" [store={store.root}]")
    )
    _emit(format_records(rows, args.format), summary, args.output)
    return 0


def _report_filters(args: argparse.Namespace) -> List[Tuple[str, str, object]]:
    """The pushdown filter list: legacy axis flags plus parsed ``--where``.

    ``--scheme`` matches what the scheme *column* shows (the override if
    set, else the design name) and compiles to the ``effective_scheme``
    query field — a materialised, indexed column of the store —
    so it pushes down like every other filter.
    """
    filters: List[Tuple[str, str, object]] = []
    for field, wanted in (
        ("model", args.model),
        ("task", args.task),
        ("design", args.design),
        ("batch_size", args.batch_size),
        ("buffer_bytes", None if args.buffer_kb is None else args.buffer_kb * KB),
    ):
        if wanted is not None:
            filters.append((field, "==", wanted))
    if args.scheme is not None:
        filters.append(("effective_scheme", "==", args.scheme))
    for text in args.where:
        filters.append(parse_filter(text))
    return filters


def _cmd_report(args: argparse.Namespace) -> int:
    store = _open_existing_store(_cli_store(args))
    filters = _report_filters(args)
    if args.group_by is not None:
        rows = store.query(
            filters, group_by=args.group_by, order_by=args.order_by, limit=args.top
        )
        if not rows:
            print("no matching records in the store", file=sys.stderr)
            return 1
        summary = f"{len(rows)} groups from {store.root}"
        _emit(format_records(rows, args.format), summary, args.output)
        return 0
    entries = store.query(filters, order_by=args.order_by, limit=args.top)
    records = [
        ScenarioRecord(
            scenario=entry.scenario,
            result=entry.result,
            cached=True,
            fidelity=entry.fidelity,
            measured=entry.measured,
        )
        for entry in entries
    ]
    if not records:
        print("no matching records in the store", file=sys.stderr)
        return 1
    summary = f"{len(records)} records from {store.root}"
    _emit(format_records([r.to_row() for r in records], args.format), summary, args.output)
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    store = _open_existing_store(_cli_store(args))
    # One grouped pushdown query answers the whole summary — per
    # (model, design) counts plus the fidelity/measured tallies — without
    # deserializing any record payloads.
    rows = store.query(group_by=("model", "design"))
    total = sum(row["count"] for row in rows)
    print(f"store: {store.root} — {total} records")
    if store.skipped:
        print(f"  ({store.skipped} unreadable/old-schema records skipped)")
    with_fidelity = sum(row["with_fidelity"] for row in rows)
    with_measured = sum(row["with_measured"] for row in rows)
    if with_fidelity:
        print(f"  ({with_fidelity} records carry fidelity results)")
    if with_measured:
        print(f"  ({with_measured} records carry measured index-domain stats)")
    for row in rows:
        print(f"  {row['model']} on {row['design']}: {row['count']}")
    return 0


def _cmd_store_import(args: argparse.Namespace) -> int:
    stored, skipped = import_jsonl(args.dir)
    summary = f"imported {stored} records into {args.dir}"
    if skipped:
        summary += f" [{skipped} unreadable lines skipped]"
    print(summary)
    return 0


def _cmd_store_export(args: argparse.Namespace) -> int:
    store = _open_existing_store(args.dir)
    count = export_jsonl(store, sys.stdout)
    print(f"exported {count} records from {store.path}", file=sys.stderr)
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    store = _open_existing_store(_cli_store(args))
    count = len(store)
    if not args.yes:
        print(
            f"would delete {count} records at {store.path}; re-run with --yes to proceed",
            file=sys.stderr,
        )
        return 1
    removed = store.clear()
    print(f"deleted {removed} records at {store.path}")
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    store = _open_existing_store(args.path)
    # One grouped pushdown query inside SQLite yields every counter — no
    # record payloads are deserialized.
    rows = store.query(group_by=("model", "design"))
    total = sum(row["count"] for row in rows)
    with_fidelity = sum(row["with_fidelity"] for row in rows)
    with_measured = sum(row["with_measured"] for row in rows)
    payload = {
        "store": str(store.root),
        "schema_version": SCHEMA_VERSION,
        "records": total,
        "model_design_combos": len(rows),
        "with_fidelity": with_fidelity,
        "with_measured": with_measured,
        "fidelity_coverage": round(with_fidelity / total, 4) if total else 0.0,
        "measured_coverage": round(with_measured / total, 4) if total else 0.0,
        "skipped": store.skipped,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"store: {payload['store']}")
    print(f"  schema: v{payload['schema_version']}")
    print(
        f"  records: {total} across {len(rows)} model x design combos"
    )
    print(
        f"  fidelity coverage: {with_fidelity}/{total} "
        f"({payload['fidelity_coverage']:.0%})"
    )
    print(
        f"  measured coverage: {with_measured}/{total} "
        f"({payload['measured_coverage']:.0%})"
    )
    print(f"  skipped (unreadable/old-schema): {store.skipped}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    store = args.store or _default_store()
    coordinator = Coordinator(store, default_workers=args.workers)
    server = make_server(args.host, args.port, coordinator, quiet=not args.verbose)
    host, port = server.server_address[:2]
    print(
        f"repro service listening on http://{host}:{port} "
        f"[store={store}, workers={args.workers}] "
        f"— SIGTERM/Ctrl-C drains workers and exits",
        file=sys.stderr,
        flush=True,
    )
    run_daemon(server, coordinator)
    print("repro service drained and stopped", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    job_id = client.submit(_load_spec_dict(args.spec), kind=args.kind, workers=args.workers)
    print(job_id)
    if not args.wait:
        return 0
    final = client.wait(job_id, timeout=args.timeout)
    progress = final["progress"]
    print(
        f"{job_id}: {final['state']} "
        f"({progress['completed']}/{progress['total']} scenarios, "
        f"{final['restarts']} worker restarts)"
        + (f" — {final['error']}" if final["error"] else ""),
        file=sys.stderr,
    )
    return 0 if final["state"] == "completed" else 1


def _cmd_service_status(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    if args.id is not None:
        print(json.dumps(client.status(args.id), indent=2, sort_keys=True))
        return 0
    jobs = client.jobs()
    if args.format == "json":
        print(json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs submitted", file=sys.stderr)
        return 0
    for job in jobs:
        progress = job["progress"]
        print(
            f"{job['id']}: {job['state']} "
            f"{progress['completed']}/{progress['total']} "
            f"[{job['kind']} {job['name']!r}, workers={job['workers']}, "
            f"restarts={job['restarts']}]"
        )
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    lines = [json.dumps(record, sort_keys=True) for record in client.results(args.id)]
    _emit("\n".join(lines), f"{len(lines)} records from {client.url}", args.output)
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    status = ServiceClient(args.url).cancel(args.id)
    print(f"{args.id}: cancellation requested (state: {status['state']})")
    return 0


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    # The CLI's trace is longer than TraceSpec's own default of 1,000.
    base = {"name": "cli", "trace": {"num_requests": 10_000}}
    spec = ServingSpec.from_dict(_spec_dict(args, base))
    spec = _resolve_spec_store(args, spec).validate()
    started = time.perf_counter()
    records, last_progress = _drain(
        iter_serving(spec), lambda record: record.base.label, progress_to_stderr=args.progress
    )
    elapsed = time.perf_counter() - started
    store = spec.execution.store
    trace, policy = spec.trace, spec.policy
    summary = (
        f"{len(records)} combos over {trace.label} x {policy.label}: "
        f"{last_progress.requests if last_progress else 0} requests replayed, "
        f"{last_progress.simulated if last_progress else 0} batch shapes simulated, "
        f"{last_progress.from_store if last_progress else 0} from store "
        f"in {elapsed:.2f}s [executor={spec.execution.executor}"
        + ("]" if store is None else f", store={store}]")
    )
    _emit(format_records([r.to_row() for r in records], args.format), summary, args.output)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (RegistryError, ServiceError, UnsupportedSchemeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
