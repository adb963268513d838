"""``repro`` command-line interface.

Drives the campaign engine (:mod:`repro.experiments`) from the shell, with
results persisted to an on-disk :class:`~repro.experiments.store.ArtifactStore`
so repeated runs only simulate new grid points::

    repro campaign run --models bert-base bert-large --designs mokey \\
        --buffer-kb 256 512 --executor process
    repro campaign run --spec spec.json --progress
    repro campaign resume --spec spec.json   # skip already-persisted keys
    repro campaign run --paper-workloads --with-accuracy
    repro campaign run --models bert-base --with-measured-stats
    repro campaign run --models bert-base --store-backend sqlite
    repro campaign report --design mokey --format csv
    repro campaign report --where "total_cycles<=1e9" --order-by energy_joules --top 10
    repro campaign report --group-by model design --order-by -count
    repro campaign list
    repro campaign clean --yes
    repro store migrate old-store new-store --to-backend sqlite
    repro store stats .repro-store   # counts/coverage without payloads
    repro serve-sim --schemes mokey-oc fp16 --rate 100 --requests 10000
    repro serve-sim --trace bursty --policy max-batch --max-batch 16 --slo-ms 50
    repro serve --port 8321 --workers 4       # campaign service daemon
    repro submit --spec spec.json --wait      # HTTP submit to the daemon
    repro status                              # all service jobs
    repro status campaign-0001                # one job, sharded progress
    repro results campaign-0001 --output out.ndjson
    repro cancel campaign-0001
    repro registry list              # the nine pluggable-axis registries
    repro registry list schemes      # one registry's entries, described
    repro table1                 # the paper's eight Table I fidelity rows
    repro table1 --joint         # fidelity next to speedup/energy (Table IV style)

(or ``python -m repro ...`` without installing the console script.)

Axis flags and ``--spec FILE`` both build the same declarative
:class:`~repro.experiments.spec.CampaignSpec`; with ``--spec`` the axis
flags are ignored and the execution flags (``--executor``, ``--workers``,
``--chunksize``, ``--store``) override the spec's execution policy.
Results stream: each scenario is appended to the store the moment it
completes, so an interrupted run (Ctrl-C, ``--limit``) is resumed by
``repro campaign resume`` — or simply re-running — with persisted keys
served from disk.

The store location is ``--store DIR``, the spec's execution policy, the
``REPRO_STORE`` environment variable, or ``./.repro-store`` in that order
of precedence.  ``--store-backend {jsonl,sqlite}`` picks the storage
engine (default: whatever layout the directory already holds, JSONL for
a fresh one); with SQLite, ``campaign report``/``list`` filters,
grouping, ordering and ``--top`` are pushed down into the database
instead of deserializing every record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.fidelity import joint_rows, table1_rows
from repro.analysis.reporting import RECORD_FORMATS, format_records
from repro.experiments import (
    EXECUTORS,
    AxisGrid,
    CampaignSpec,
    Enrichments,
    ExecutionPolicy,
    MeasurementSettings,
    ResultCache,
    ScenarioRecord,
    UnsupportedSchemeError,
    available_designs,
    available_store_backends,
    iter_campaign,
    migrate_store,
    open_store,
    parse_filter,
    run_spec,
    supported_accuracy_schemes,
    supports_accuracy,
)
from repro.experiments import SCHEMA_VERSION
from repro.registry import RegistryError, get_registry, registry_kinds
from repro.schemes import available_schemes
from repro.service import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    Coordinator,
    ServiceClient,
    ServiceError,
    make_server,
    run_daemon,
)
from repro.serving import (
    POLICY_KINDS,
    TRACE_GENERATORS,
    PolicySpec,
    ServingSpec,
    TraceSpec,
    iter_serving,
)
from repro.accelerator.workloads import TASK_SEQUENCE_LENGTHS
from repro.transformer.model_zoo import MODEL_CONFIGS, PAPER_MODELS

__all__ = ["main"]

KB = 1024

DEFAULT_STORE = ".repro-store"


def _default_store() -> str:
    return os.environ.get("REPRO_STORE", DEFAULT_STORE)


def _parse_sequence_length(value: str) -> Optional[int]:
    """``"none"``/``"default"`` → task default; otherwise a positive int."""
    if value.lower() in ("none", "default"):
        return None
    return int(value)


def _parse_scheme(value: str) -> Optional[str]:
    """``"none"``/``"native"`` → the design's own scheme."""
    if value.lower() in ("none", "native"):
        return None
    return value


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="artifact store directory (default: $REPRO_STORE or ./.repro-store)",
    )
    parser.add_argument(
        "--store-backend",
        choices=available_store_backends(),
        default=None,
        help="storage engine for the store directory (default: whatever "
        "layout the directory already holds, jsonl for a fresh one)",
    )


def _open_cli_store(args: argparse.Namespace):
    """Open the command's store under the chosen (or detected) backend."""
    return open_store(
        args.store or _default_store(), backend=getattr(args, "store_backend", None)
    )


def _add_format_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=RECORD_FORMATS,
        default="table",
        help="output format for the result records (default: table)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the formatted records to FILE instead of stdout",
    )


def _add_filter_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default=None, help="only records for this model")
    parser.add_argument("--task", default=None, help="only records for this task")
    parser.add_argument("--design", default=None, help="only records for this design")
    parser.add_argument(
        "--scheme",
        default=None,
        help="only records whose scheme column matches (the override if set, else the design name)",
    )
    parser.add_argument("--batch-size", type=int, default=None, help="only this batch size")
    parser.add_argument("--buffer-kb", type=int, default=None, help="only this buffer size (KB)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mokey (ISCA 2022) reproduction: campaign runner and result store.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    campaign = commands.add_parser("campaign", help="run and inspect simulation campaigns")
    actions = campaign.add_subparsers(dest="action", required=True)

    run = actions.add_parser(
        "run",
        help="simulate a scenario grid (store hits are not re-simulated)",
        description=(
            "Expand the axis flags — or load a declarative --spec file — into "
            "a scenario grid and simulate it, streaming each result into the "
            "artifact store as it completes. Grid points already stored are "
            "served from disk, so an identical second run simulates nothing."
        ),
    )
    run.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="load a CampaignSpec JSON file instead of the axis flags "
        "(axis flags are ignored; execution flags override the spec's policy)",
    )
    run.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="stop after N records (everything emitted stays persisted; "
        "'repro campaign resume' picks up where the run stopped)",
    )
    run.add_argument(
        "--progress",
        action="store_true",
        help="print one streaming progress line per completed scenario to stderr",
    )
    run.add_argument(
        "--models",
        nargs="+",
        default=["bert-base"],
        choices=sorted(MODEL_CONFIGS),
        metavar="MODEL",
        help=f"model-zoo axis (choices: {', '.join(sorted(MODEL_CONFIGS))})",
    )
    run.add_argument("--tasks", nargs="+", default=["mnli"], metavar="TASK", help="task axis")
    run.add_argument(
        "--sequence-lengths",
        nargs="+",
        type=_parse_sequence_length,
        default=[None],
        metavar="LEN",
        help="sequence-length axis; 'none' uses each task's default length",
    )
    run.add_argument(
        "--batch-sizes", nargs="+", type=int, default=[1], metavar="N", help="batch-size axis"
    )
    run.add_argument(
        "--schemes",
        nargs="+",
        type=_parse_scheme,
        default=[None],
        metavar="SCHEME",
        help="quantization-scheme axis; 'none' keeps each design's own scheme",
    )
    run.add_argument(
        "--designs",
        nargs="+",
        default=["mokey"],
        metavar="DESIGN",
        help=f"accelerator-design axis (choices: {', '.join(available_designs())})",
    )
    run.add_argument(
        "--buffer-kb",
        nargs="+",
        type=int,
        default=[512],
        metavar="KB",
        help="on-chip buffer capacity axis, in KB",
    )
    run.add_argument(
        "--paper-workloads",
        action="store_true",
        help="use the paper's Table I (model, task, seq) pairs instead of "
        "crossing --models/--tasks/--sequence-lengths",
    )
    run.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="how to fan the grid out (process = fastest for large grids; "
        "default: the spec's policy, else thread)",
    )
    run.add_argument(
        "--workers", type=int, default=None, metavar="N", help="pool width (default: automatic)"
    )
    run.add_argument(
        "--chunksize",
        type=int,
        default=None,
        metavar="N",
        help="scenarios per process-pool work item (process executor only)",
    )
    run.add_argument(
        "--with-accuracy",
        action="store_true",
        help="also evaluate task fidelity per (model, task, scheme) and join it "
        "to each record (one quantization serves every seq/batch/buffer point)",
    )
    run.add_argument(
        "--with-measured-stats",
        action="store_true",
        help="also execute one encoder layer per (model, seq, batch) through the "
        "vectorized index-domain engine and join the measured Gaussian/outlier "
        "operation counts to each record, next to the analytic ones",
    )
    run.add_argument(
        "--measured-scope",
        choices=("layer", "model"),
        default=None,
        metavar="SCOPE",
        help="what the measured stats cover: 'layer' (one encoder layer, the "
        "default) or 'model' (the whole encoder stack, every layer's "
        "index-domain output feeding the next); implies --with-measured-stats",
    )
    run.add_argument(
        "--no-store", action="store_true", help="do not read or write the artifact store"
    )
    _add_store_argument(run)
    _add_format_arguments(run)

    resume = actions.add_parser(
        "resume",
        help="resume an interrupted spec-driven campaign from its store",
        description=(
            "Re-run a CampaignSpec against its artifact store: scenarios whose "
            "keys are already persisted are served from disk, only the missing "
            "ones simulate, and the final record set is bit-identical to an "
            "uninterrupted run."
        ),
    )
    resume.add_argument("--spec", required=True, metavar="FILE", help="CampaignSpec JSON file")
    resume.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="override the spec's executor",
    )
    resume.add_argument(
        "--workers", type=int, default=None, metavar="N", help="pool width (default: automatic)"
    )
    resume.add_argument(
        "--chunksize",
        type=int,
        default=None,
        metavar="N",
        help="scenarios per process-pool work item (process executor only)",
    )
    resume.add_argument(
        "--progress",
        action="store_true",
        help="print one streaming progress line per completed scenario to stderr",
    )
    _add_store_argument(resume)
    _add_format_arguments(resume)

    report = actions.add_parser(
        "report",
        help="format stored records (filters/grouping push down into the store)",
        description=(
            "Render records from the artifact store, optionally filtered, "
            "grouped, ordered and limited. Filters, --group-by, --order-by "
            "and --top are pushed down into the store backend — with SQLite "
            "they run server-side over indexed columns instead of "
            "deserializing every record."
        ),
    )
    _add_store_argument(report)
    _add_filter_arguments(report)
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
    _add_format_arguments(report)

    list_cmd = actions.add_parser(
        "list",
        help="summarise the artifact store",
        description="Show record counts per model/design in the artifact store.",
    )
    _add_store_argument(list_cmd)

    clean = actions.add_parser(
        "clean",
        help="delete the artifact store's records",
        description="Delete every stored record (requires --yes).",
    )
    clean.add_argument("--yes", action="store_true", help="actually delete (no prompt)")
    _add_store_argument(clean)

    store_cmd = commands.add_parser(
        "store",
        help="manage artifact stores (backend migration)",
        description=(
            "Operations on artifact-store directories themselves, "
            "independent of any campaign."
        ),
    )
    store_actions = store_cmd.add_subparsers(dest="action", required=True)
    migrate = store_actions.add_parser(
        "migrate",
        help="copy every record of one store into another (e.g. jsonl -> sqlite)",
        description=(
            "Stream every readable record of SOURCE into DEST, preserving "
            "keys, insertion order and record digests exactly. Unreadable "
            "source records are skipped and reported; keys already in DEST "
            "merge under the normal upgrade semantics."
        ),
    )
    migrate.add_argument("source", metavar="SOURCE", help="source store directory")
    migrate.add_argument("dest", metavar="DEST", help="destination store directory")
    migrate.add_argument(
        "--from-backend",
        choices=available_store_backends(),
        default=None,
        help="backend of SOURCE (default: detected from its layout)",
    )
    migrate.add_argument(
        "--to-backend",
        choices=available_store_backends(),
        default=None,
        help="backend of DEST (default: detected from its layout, jsonl if fresh)",
    )
    stats = store_actions.add_parser(
        "stats",
        help="summarise a store without deserializing record payloads",
        description=(
            "Report a store directory's backend, schema version, record "
            "count, fidelity/measured coverage and skipped-line count. "
            "Counts come from one grouped pushdown query — with SQLite "
            "they run server-side over indexed columns, no payloads read."
        ),
    )
    stats.add_argument("path", metavar="PATH", help="store directory to summarise")
    stats.add_argument(
        "--store-backend",
        choices=available_store_backends(),
        default=None,
        help="backend of PATH (default: detected from its layout)",
    )
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
            "models, tasks, engines, store backends, arrival traces, "
            "batching policies) behind one "
            "names/get/describe protocol."
        ),
    )
    registry_actions = registry.add_subparsers(dest="action", required=True)
    registry_list = registry_actions.add_parser(
        "list",
        help="list all registries, or one registry's entries with descriptions",
    )
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
        help="reproduce the paper's Table I task-fidelity rows",
        description=(
            "Run the accuracy campaign over the paper's eight Table I "
            "(model, task) pairs — plus the Tensor Cores baseline for the "
            "joint view — and render the fidelity rows next to the paper's "
            "reported values. Results persist to the artifact store, so a "
            "second invocation simulates and evaluates nothing."
        ),
    )
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
    table1.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="thread",
        help="how to fan the grid out",
    )
    table1.add_argument(
        "--workers", type=int, default=None, metavar="N", help="pool width (default: automatic)"
    )
    table1.add_argument(
        "--no-store", action="store_true", help="do not read or write the artifact store"
    )
    _add_store_argument(table1)
    _add_format_arguments(table1)

    serve = commands.add_parser(
        "serve-sim",
        help="replay a seeded request-arrival trace through the batching "
        "simulator (p50/p99 latency, goodput, energy-per-request)",
        description=(
            "Generate a seeded arrival trace, form batches under a dynamic "
            "batching policy, and replay them against the accelerator "
            "cycle/energy models for every scheme × design combo. Batch "
            "size is emergent — each distinct formed size costs one real "
            "simulation, memoised through the artifact store, so a "
            "million-request trace needs only a handful of sims and a "
            "re-run over a warm store simulates nothing."
        ),
    )
    serve.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="load a ServingSpec JSON file instead of the flags below "
        "(execution flags still override the spec's policy)",
    )
    serve.add_argument(
        "--model",
        default="bert-base",
        choices=sorted(MODEL_CONFIGS),
        metavar="MODEL",
        help=f"served model (choices: {', '.join(sorted(MODEL_CONFIGS))})",
    )
    serve.add_argument("--task", default="mnli", metavar="TASK", help="served task")
    serve.add_argument(
        "--sequence-length",
        type=_parse_sequence_length,
        default=None,
        metavar="LEN",
        help="request sequence length; 'none' (default) uses the task's",
    )
    serve.add_argument(
        "--schemes",
        nargs="+",
        type=_parse_scheme,
        default=[None],
        metavar="SCHEME",
        help="quantization schemes to compare; 'none' keeps each design's own",
    )
    serve.add_argument(
        "--designs",
        nargs="+",
        default=["mokey"],
        metavar="DESIGN",
        help=f"accelerator designs (choices: {', '.join(available_designs())})",
    )
    serve.add_argument(
        "--buffer-kb",
        type=int,
        default=512,
        metavar="KB",
        help="on-chip buffer capacity per accelerator, in KB (default: 512)",
    )
    serve.add_argument(
        "--trace",
        default="poisson",
        metavar="KIND",
        help=f"arrival-trace kind (choices: {', '.join(sorted(TRACE_GENERATORS))})",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=100.0,
        metavar="RPS",
        help="mean request arrival rate, requests/second (default: 100)",
    )
    serve.add_argument(
        "--requests",
        type=int,
        default=10_000,
        metavar="N",
        help="trace length in requests (default: 10000)",
    )
    serve.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="SEED",
        help="trace RNG seed; same seed + spec = bit-identical metrics",
    )
    serve.add_argument(
        "--trace-param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="trace-kind parameter, e.g. burst_factor=6 (repeatable; see "
        "'repro registry list traces')",
    )
    serve.add_argument(
        "--policy",
        default="timeout",
        metavar="KIND",
        help=f"batching policy (choices: {', '.join(sorted(POLICY_KINDS))})",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=8,
        metavar="N",
        help="largest batch a policy may form (default: 8)",
    )
    serve.add_argument(
        "--timeout-ms",
        type=float,
        default=10.0,
        metavar="MS",
        help="timeout policy: longest the queue head waits for fill (default: 10)",
    )
    serve.add_argument(
        "--accelerators",
        type=int,
        default=1,
        metavar="N",
        help="identical engines served from one queue (default: 1)",
    )
    serve.add_argument(
        "--slo-ms",
        type=float,
        default=None,
        metavar="MS",
        help="latency objective; goodput counts only requests within it",
    )
    serve.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="how to fan the scheme × design combos out (default: the "
        "spec's policy, else thread); all three are bit-identical",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N", help="pool width (default: automatic)"
    )
    serve.add_argument(
        "--progress",
        action="store_true",
        help="print one streaming progress line per completed combo to stderr",
    )
    serve.add_argument(
        "--no-store", action="store_true", help="do not read or write the artifact store"
    )
    _add_store_argument(serve)
    _add_format_arguments(serve)

    def _add_url_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--url",
            default=None,
            metavar="URL",
            help="campaign-service URL (default: $REPRO_SERVICE_URL or "
            f"http://{DEFAULT_HOST}:{DEFAULT_PORT})",
        )

    serve_daemon = commands.add_parser(
        "serve",
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
    _add_store_argument(serve_daemon)

    submit = commands.add_parser(
        "submit",
        help="submit a campaign/serving spec to a running campaign service",
        description=(
            "POST a CampaignSpec or ServingSpec JSON file to the daemon and "
            "print the job id (the kind is auto-detected from the payload). "
            "With --wait, block until the job is terminal and exit 0 only "
            "on completion."
        ),
    )
    submit.add_argument("--spec", required=True, metavar="FILE", help="spec JSON file")
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
    _add_url_argument(submit)

    status = commands.add_parser(
        "status",
        help="show campaign-service job progress (all jobs, or one in full)",
        description=(
            "Without an id: one summary line per submitted job. With an id: "
            "the job's full structured status as JSON — state, aggregate "
            "progress, and per-shard completed/total/restarts/pid."
        ),
    )
    status.add_argument(
        "id", nargs="?", default=None, metavar="ID", help="job id (default: list all)"
    )
    status.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="listing format when no id is given (default: table)",
    )
    _add_url_argument(status)

    results = commands.add_parser(
        "results",
        help="stream a service job's completed records as NDJSON",
        description=(
            "Fetch the job's completed records as newline-delimited JSON in "
            "deterministic grid order (not store insertion order), each "
            "line carrying the record's content key and digest. Usable "
            "mid-run: scenarios not yet persisted are simply absent."
        ),
    )
    results.add_argument("id", metavar="ID", help="job id")
    results.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the NDJSON lines to FILE instead of stdout",
    )
    _add_url_argument(results)

    cancel = commands.add_parser(
        "cancel",
        help="cancel a campaign-service job (persisted records remain)",
        description=(
            "Ask the job's workers to stop after their in-flight record. "
            "Everything already persisted stays in the store; resubmitting "
            "the same spec later resumes from it."
        ),
    )
    cancel.add_argument("id", metavar="ID", help="job id")
    _add_url_argument(cancel)

    return parser


def _validate_run_axes(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    for task in args.tasks:
        if task not in TASK_SEQUENCE_LENGTHS:
            parser.error(
                f"unknown task {task!r} (choices: {', '.join(sorted(TASK_SEQUENCE_LENGTHS))})"
            )
    known_designs = set(available_designs())
    for design in args.designs:
        if design not in known_designs:
            parser.error(
                f"unknown design {design!r} (choices: {', '.join(sorted(known_designs))})"
            )
    known_schemes = set(available_schemes())
    for scheme in args.schemes:
        if scheme is not None and scheme not in known_schemes:
            parser.error(
                f"unknown scheme {scheme!r} (choices: none, {', '.join(sorted(known_schemes))})"
            )


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


def _load_spec(path: str) -> CampaignSpec:
    try:
        return CampaignSpec.load(path)
    except OSError as exc:
        print(f"error: cannot read spec {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        print(f"error: spec {path!r} does not parse as a CampaignSpec: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _spec_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> CampaignSpec:
    """Build the campaign spec: from ``--spec FILE`` or the axis flags.

    Execution flags (``--executor``/``--workers``/``--chunksize``) and the
    enrichment flags override the spec's own policy either way.
    """
    if getattr(args, "spec", None):
        spec = _load_spec(args.spec)
    else:
        _validate_run_axes(parser, args)
        workloads = None
        if args.paper_workloads:
            workloads = tuple(
                (model, task, seq) for (model, task, seq, _head) in PAPER_MODELS
            )
        spec = CampaignSpec(
            name="cli",
            axes=AxisGrid(
                models=tuple(args.models),
                tasks=tuple(args.tasks),
                sequence_lengths=tuple(args.sequence_lengths),
                batch_sizes=tuple(args.batch_sizes),
                schemes=tuple(args.schemes),
                designs=tuple(args.designs),
                buffer_bytes=tuple(size * KB for size in args.buffer_kb),
                workloads=workloads,
            ),
        )
    execution_overrides = {}
    if getattr(args, "executor", None) is not None:
        execution_overrides["executor"] = args.executor
    if getattr(args, "workers", None) is not None:
        execution_overrides["max_workers"] = args.workers
    if getattr(args, "chunksize", None) is not None:
        execution_overrides["chunksize"] = args.chunksize
    if execution_overrides:
        spec = spec.with_execution(**execution_overrides)
    enrichment_overrides = {}
    if getattr(args, "with_accuracy", False):
        enrichment_overrides["accuracy"] = True
    if getattr(args, "with_measured_stats", False):
        enrichment_overrides["measured"] = True
    measured_scope = getattr(args, "measured_scope", None)
    if measured_scope is not None:
        base_settings = spec.enrichments.measurement_settings or MeasurementSettings()
        enrichment_overrides["measured"] = True
        enrichment_overrides["measurement_settings"] = replace(
            base_settings, scope=measured_scope
        )
    if enrichment_overrides:
        spec = spec.with_enrichments(**enrichment_overrides)
    return spec


def _resolve_spec_store(args: argparse.Namespace, spec: CampaignSpec) -> CampaignSpec:
    """Pin the spec's store: ``--store`` > spec policy > $REPRO_STORE > default.

    ``--no-store`` clears it.  The returned spec is what actually runs —
    the CLI drives ``iter_campaign`` purely through the execution policy,
    so the spec's ``resume`` field is honoured exactly as in the library.
    """
    if getattr(args, "no_store", False):
        return spec.with_execution(store=None)
    changes = {"store": args.store or spec.execution.store or _default_store()}
    backend = getattr(args, "store_backend", None)
    if backend is not None:
        changes["store_backend"] = backend
    return spec.with_execution(**changes)


def _stream_records(
    spec: CampaignSpec,
    limit: Optional[int] = None,
    progress_to_stderr: bool = False,
) -> Tuple[List[ScenarioRecord], Optional[object]]:
    """Drain ``iter_campaign``, optionally stopping after ``limit`` records.

    Everything emitted before the stop is already persisted (the engine
    appends to the store before yielding), which is exactly what makes
    ``--limit``/Ctrl-C resumable.
    """
    records: List[ScenarioRecord] = []
    last_progress = None
    events = iter_campaign(spec)
    try:
        for record, progress in events:
            records.append(record)
            last_progress = progress
            if progress_to_stderr:
                print(f"{progress} {record.scenario.label}", file=sys.stderr)
            if limit is not None and progress.completed >= limit:
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


def _cmd_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    spec = _resolve_spec_store(args, _spec_from_args(parser, args))
    started = time.perf_counter()
    try:
        records, last_progress = _stream_records(
            spec, limit=args.limit, progress_to_stderr=args.progress
        )
    except (UnsupportedSchemeError, RegistryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    summary = _run_summary(spec, records, last_progress, elapsed)
    _emit(format_records([r.to_row() for r in records], args.format), summary, args.output)
    return 0


def _cmd_resume(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    # Resuming is the whole point of this command, whatever the spec says.
    spec = _resolve_spec_store(args, _spec_from_args(parser, args)).with_execution(resume=True)
    already_stored = len(open_store(spec.execution.store, backend=spec.execution.store_backend))
    started = time.perf_counter()
    try:
        records, last_progress = _stream_records(spec, progress_to_stderr=args.progress)
    except (UnsupportedSchemeError, RegistryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    summary = (
        f"resumed from {already_stored} stored records: "
        + _run_summary(spec, records, last_progress, elapsed)
    )
    _emit(format_records([r.to_row() for r in records], args.format), summary, args.output)
    return 0


def _cmd_registry_list(args: argparse.Namespace) -> int:
    try:
        if args.kind is None:
            if args.format == "json":
                payload = {
                    kind: list(get_registry(kind).names()) for kind in registry_kinds()
                }
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
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_table1(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if not supports_accuracy(args.scheme):
        known = ", ".join(supported_accuracy_schemes())
        print(
            f"error: scheme {args.scheme!r} has no accuracy-side numerics evaluator "
            f"(choices: {known})",
            file=sys.stderr,
        )
        return 2
    # The target rows run the scheme's numerics on the Mokey design with
    # fidelity; the Tensor Cores baseline rides along hardware-only (its
    # fidelity is never read) so --joint can pair speedup/energy.
    scheme = None if args.scheme == "mokey" else args.scheme
    workloads = tuple((model, task, seq) for (model, task, seq, _head) in PAPER_MODELS)
    store = None if args.no_store else _open_cli_store(args)
    cache = ResultCache(store=store)
    execution = ExecutionPolicy(executor=args.executor, max_workers=args.workers)
    started = time.perf_counter()
    target = run_spec(
        CampaignSpec(
            name="table1",
            axes=AxisGrid(workloads=workloads, schemes=(scheme,), designs=("mokey",)),
            enrichments=Enrichments(accuracy=True),
            execution=execution,
        ),
        cache=cache,
    )
    baseline = run_spec(
        CampaignSpec(
            name="table1-baseline",
            axes=AxisGrid(workloads=workloads, designs=("tensor-cores",)),
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
    query field — a materialised, indexed column in the SQLite backend —
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


def _cmd_report(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    store = _open_cli_store(args)
    try:
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    store = _open_cli_store(args)
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


def _cmd_store_migrate(args: argparse.Namespace) -> int:
    source = open_store(args.source, backend=args.from_backend)
    if not source.path.exists():
        print(f"error: no {source.backend_name} store at {source.path}", file=sys.stderr)
        return 2
    try:
        dest = open_store(args.dest, backend=args.to_backend)
        stored = migrate_store(source, dest)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = (
        f"migrated {stored} records: {source.root} ({source.backend_name}) "
        f"-> {dest.root} ({dest.backend_name})"
    )
    if source.skipped:
        summary += f" [{source.skipped} unreadable source records skipped]"
    print(summary)
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    store = _open_cli_store(args)
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
    store = open_store(args.path, backend=args.store_backend)
    if not store.path.exists():
        print(f"error: no {store.backend_name} store at {store.path}", file=sys.stderr)
        return 2
    # One grouped pushdown query yields every counter — no record payloads
    # are deserialized (with SQLite it runs server-side over indexed
    # columns).
    rows = store.query(group_by=("model", "design"))
    total = sum(row["count"] for row in rows)
    with_fidelity = sum(row["with_fidelity"] for row in rows)
    with_measured = sum(row["with_measured"] for row in rows)
    payload = {
        "store": str(store.root),
        "backend": store.backend_name,
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
    print(f"  backend: {payload['backend']} (schema v{payload['schema_version']})")
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
    # The service defaults to SQLite: it is the backend proven under
    # concurrent shard writers (WAL mode, immediate-transaction retries).
    backend = args.store_backend or "sqlite"
    coordinator = Coordinator(store, store_backend=backend, default_workers=args.workers)
    try:
        server = make_server(args.host, args.port, coordinator, quiet=not args.verbose)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    print(
        f"repro service listening on http://{host}:{port} "
        f"[store={store}, backend={backend}, workers={args.workers}] "
        f"— SIGTERM/Ctrl-C drains workers and exits",
        file=sys.stderr,
        flush=True,
    )
    run_daemon(server, coordinator)
    print("repro service drained and stopped", file=sys.stderr)
    return 0


def _load_spec_dict(path: str) -> Dict:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read spec {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except json.JSONDecodeError as exc:
        print(f"error: spec {path!r} is not valid JSON: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not isinstance(payload, dict):
        print(f"error: spec {path!r} must hold a JSON object", file=sys.stderr)
        raise SystemExit(2)
    return payload


def _cmd_submit(args: argparse.Namespace) -> int:
    spec_dict = _load_spec_dict(args.spec)
    client = ServiceClient(args.url)
    try:
        job_id = client.submit(spec_dict, kind=args.kind, workers=args.workers)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(job_id)
    if not args.wait:
        return 0
    try:
        final = client.wait(job_id, timeout=args.timeout)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    try:
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
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_results(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    try:
        lines = [json.dumps(record, sort_keys=True) for record in client.results(args.id)]
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit("\n".join(lines), f"{len(lines)} records from {client.url}", args.output)
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    try:
        status = client.cancel(args.id)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.id}: cancellation requested (state: {status['state']})")
    return 0


def _parse_trace_params(
    parser: argparse.ArgumentParser, texts: Sequence[str]
) -> Dict[str, float]:
    params: Dict[str, float] = {}
    for text in texts:
        key, sep, value = text.partition("=")
        if not sep or not key:
            parser.error(f"--trace-param wants KEY=VALUE, got {text!r}")
        try:
            params[key] = float(value)
        except ValueError:
            parser.error(f"--trace-param {key!r} wants a number, got {value!r}")
    return params


def _serving_spec_from_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> ServingSpec:
    """Build the serving spec: from ``--spec FILE`` or the flags.

    Execution flags (``--executor``/``--workers``) override the spec's
    policy either way, mirroring ``campaign run``.
    """
    if args.spec:
        try:
            spec = ServingSpec.load(args.spec)
        except OSError as exc:
            print(f"error: cannot read spec {args.spec!r}: {exc}", file=sys.stderr)
            raise SystemExit(2)
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            print(
                f"error: spec {args.spec!r} does not parse as a ServingSpec: {exc}",
                file=sys.stderr,
            )
            raise SystemExit(2)
    else:
        spec = ServingSpec(
            name="cli",
            model=args.model,
            task=args.task,
            sequence_length=args.sequence_length,
            schemes=tuple(args.schemes),
            designs=tuple(args.designs),
            buffer_bytes=args.buffer_kb * KB,
            trace=TraceSpec(
                kind=args.trace,
                rate_rps=args.rate,
                num_requests=args.requests,
                seed=args.seed,
                params=_parse_trace_params(parser, args.trace_param),
            ),
            policy=PolicySpec(
                kind=args.policy,
                max_batch=args.max_batch,
                timeout_ms=args.timeout_ms,
            ),
            num_accelerators=args.accelerators,
            slo_ms=args.slo_ms,
        )
    overrides = {}
    if args.executor is not None:
        overrides["executor"] = args.executor
    if args.workers is not None:
        overrides["max_workers"] = args.workers
    if overrides:
        spec = spec.with_execution(**overrides)
    return spec


def _cmd_serve_sim(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    spec = _resolve_spec_store(args, _serving_spec_from_args(parser, args))
    started = time.perf_counter()
    records = []
    last_progress = None
    try:
        events = iter_serving(spec)
        try:
            for record, progress in events:
                records.append(record)
                last_progress = progress
                if args.progress:
                    print(f"{progress} {record.base.label}", file=sys.stderr)
        finally:
            events.close()
    except (RegistryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "campaign":
        if args.action == "run":
            return _cmd_run(parser, args)
        if args.action == "resume":
            return _cmd_resume(parser, args)
        if args.action == "report":
            return _cmd_report(parser, args)
        if args.action == "list":
            return _cmd_list(args)
        if args.action == "clean":
            return _cmd_clean(args)
    if args.command == "store":
        if args.action == "migrate":
            return _cmd_store_migrate(args)
        if args.action == "stats":
            return _cmd_store_stats(args)
    if args.command == "registry":
        return _cmd_registry_list(args)
    if args.command == "table1":
        return _cmd_table1(parser, args)
    if args.command == "serve-sim":
        return _cmd_serve_sim(parser, args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_service_status(args)
    if args.command == "results":
        return _cmd_results(args)
    if args.command == "cancel":
        return _cmd_cancel(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
