"""Tests for the ``repro`` CLI (``python -m repro``)."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCampaignRun:
    def test_second_identical_run_simulates_nothing(self, tmp_path, capsys):
        args = [
            "campaign", "run",
            "--models", "bert-base",
            "--designs", "mokey", "tensor-cores",
            "--buffer-kb", "256", "1024",
            "--store", str(tmp_path / "store"),
        ]
        code, _out, err = run_cli(args, capsys)
        assert code == 0
        assert "4 simulated" in err
        code, _out, err = run_cli(args, capsys)
        assert code == 0
        assert "0 simulated" in err
        assert "4 cache hits (4 from store)" in err

    def test_json_output_is_parseable_and_clean(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["campaign", "run", "--store", str(tmp_path / "s"), "--format", "json"], capsys
        )
        assert code == 0
        rows = json.loads(out)  # no summary mixed into stdout
        assert len(rows) == 1
        assert rows[0]["model"] == "bert-base"
        assert "1 records" in err

    def test_csv_output_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "rows.csv"
        code, out, _err = run_cli(
            [
                "campaign", "run",
                "--store", str(tmp_path / "s"),
                "--format", "csv",
                "--output", str(out_file),
            ],
            capsys,
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0].startswith("model,task,sequence_length")
        assert len(lines) == 2
        assert "1 records" in out  # summary goes to stdout when records go to a file

    def test_no_store_mode_never_touches_disk(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _out, err = run_cli(["campaign", "run", "--no-store"], capsys)
        assert code == 0
        assert "1 simulated" in err
        assert not (tmp_path / ".repro-store").exists()

    def test_executor_choices_run(self, tmp_path, capsys):
        for executor in ("serial", "thread", "process"):
            code, _out, err = run_cli(
                [
                    "campaign", "run",
                    "--no-store",
                    "--executor", executor,
                    "--designs", "mokey",
                ],
                capsys,
            )
            assert code == 0
            assert f"executor={executor}" in err

    def test_paper_workloads_flag(self, tmp_path, capsys):
        code, _out, err = run_cli(
            ["campaign", "run", "--no-store", "--paper-workloads", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert "8 records" in err

    def test_unknown_design_is_a_one_line_error(self, tmp_path, capsys):
        code, _out, err = run_cli(
            ["campaign", "run", "--designs", "nonexistent", "--store", str(tmp_path)], capsys
        )
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "'designs' registry" in err

    def test_unknown_scheme_is_a_one_line_error(self, tmp_path, capsys):
        code, _out, err = run_cli(
            ["campaign", "run", "--schemes", "int3", "--store", str(tmp_path)], capsys
        )
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "'schemes' registry" in err

    @pytest.mark.parametrize("flag", ["--designs", "--schemes"])
    def test_misspelt_design_or_scheme_suggests_the_nearest(self, flag, capsys):
        code, _out, err = run_cli(["campaign", "run", flag, "mokeyy", "--no-store"], capsys)
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert "did you mean 'mokey'" in lines[0]

    def test_unknown_task_is_a_one_line_error(self, tmp_path, capsys):
        code, _out, err = run_cli(
            ["campaign", "run", "--tasks", "sqaud", "--store", str(tmp_path)], capsys
        )
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert "did you mean 'squad'" in lines[0]

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_non_positive_limit_is_a_one_line_error(self, limit, tmp_path, capsys):
        code, _out, err = run_cli(
            ["campaign", "run", "--limit", limit, "--store", str(tmp_path / "s"),
             "--designs", "mokey", "gobo"],
            capsys,
        )
        assert code == 2
        assert err.strip().splitlines() == [f"error: --limit must be positive, got {limit}"]
        assert not (tmp_path / "s").exists()


def run_quietly(args):
    """``main(args)`` with its output captured: ``(code, stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


#: Each drawn axis: registered names plus misspellings the spec must reject.
AXIS_VALUES = {
    "models": st.sampled_from(["bert-base", "bert-large", "bert-bse"]),
    "tasks": st.sampled_from(["mnli", "squad", "classification", "sqaud"]),
    "sequence_lengths": st.sampled_from([None, 0, 64, "abc"]),
    "batch_sizes": st.sampled_from([0, 1, 4]),
    "schemes": st.sampled_from([None, "mokey-oc", "fp16", "mokeyy"]),
    "designs": st.sampled_from(["mokey", "gobo", "tensor-cores", "mokeyy"]),
    "buffer_kb": st.sampled_from([0, 256, 512]),
}


class TestFlagsAndSpecAreOnePath:
    """Axis flags and the same axes in a ``--spec`` file are one path."""

    FLAGS = {
        "models": "--models", "tasks": "--tasks", "sequence_lengths": "--sequence-lengths",
        "batch_sizes": "--batch-sizes", "schemes": "--schemes", "designs": "--designs",
        "buffer_kb": "--buffer-kb",
    }
    COMMON = ["--no-store", "--executor", "serial", "--format", "csv"]

    @given(axes=st.fixed_dictionaries(
        {}, optional={name: st.lists(values, min_size=1, max_size=2)
                      for name, values in AXIS_VALUES.items()}
    ))
    @example(axes={"tasks": ["classification"]})
    @example(axes={"tasks": ["sqaud"]})
    @example(axes={"models": ["bert-bse"]})
    @example(axes={"sequence_lengths": ["abc"]})
    @example(axes={"batch_sizes": [0]})
    @settings(max_examples=30, deadline=None)
    def test_flags_and_spec_agree(self, axes):
        flags = ["campaign", "run"] + self.COMMON
        spec_axes = {}
        for name, values in axes.items():
            flags += [self.FLAGS[name]] + ["none" if v is None else str(v) for v in values]
            if name == "buffer_kb":
                spec_axes["buffer_bytes"] = [kb * 1024 for kb in values]
            else:
                spec_axes[name] = values
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps({"axes": spec_axes}))
            by_spec = run_quietly(["campaign", "run", "--spec", str(path)] + self.COMMON)
        by_flags = run_quietly(flags)
        assert by_flags[0] == by_spec[0]
        if by_spec[0] == 0:
            assert by_flags[1] == by_spec[1]
        else:
            assert len(by_spec[2].splitlines()) == 1
            assert by_flags[2] == by_spec[2]

    def test_axis_flag_overrides_its_spec_field(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"axes": {"tasks": ["squad"], "designs": ["mokey"]}}))
        code, out, _err = run_cli(
            ["campaign", "run", "--spec", str(path), "--designs", "gobo", "tensor-cores",
             "--no-store", "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert [row["design"] for row in rows] == ["gobo", "tensor-cores"]
        assert {row["task"] for row in rows} == {"squad"}  # fields not flagged stay


class TestReportListClean:
    @pytest.fixture()
    def populated_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(
            [
                "campaign", "run",
                "--models", "bert-base", "bert-large",
                "--designs", "mokey", "tensor-cores",
                "--store", store,
            ]
        )
        capsys.readouterr()
        return store

    def test_report_filters_and_formats(self, populated_store, capsys):
        code, out, _err = run_cli(
            ["campaign", "report", "--store", populated_store, "--design", "mokey",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2
        assert {row["design"] for row in rows} == {"mokey"}

    def test_report_scheme_filter_matches_displayed_column(self, populated_store, capsys):
        # Records run without a scheme override display the design name in
        # the scheme column; the filter must match that same value.
        code, out, _err = run_cli(
            ["campaign", "report", "--store", populated_store, "--scheme", "tensor-cores",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2
        assert {row["scheme"] for row in rows} == {"tensor-cores"}

    def test_report_empty_match_fails(self, populated_store, capsys):
        code, _out, err = run_cli(
            ["campaign", "report", "--store", populated_store, "--design", "gobo"], capsys
        )
        assert code == 1
        assert "no matching records" in err

    def test_list_summarises(self, populated_store, capsys):
        code, out, _err = run_cli(["campaign", "list", "--store", populated_store], capsys)
        assert code == 0
        assert "4 records" in out
        assert "bert-large on mokey: 1" in out

    def test_clean_requires_yes(self, populated_store, capsys):
        code, _out, err = run_cli(["campaign", "clean", "--store", populated_store], capsys)
        assert code == 1
        assert "--yes" in err
        code, out, _err = run_cli(
            ["campaign", "clean", "--store", populated_store, "--yes"], capsys
        )
        assert code == 0
        assert "deleted 4 records" in out
        code, out, _err = run_cli(["campaign", "list", "--store", populated_store], capsys)
        assert code == 0
        assert "0 records" in out


class TestAccuracyRun:
    @pytest.fixture()
    def compute_only_scheme(self):
        from repro.schemes import SCHEMES, QuantizationScheme

        class ComputeOnlyScheme(QuantizationScheme):
            name = "compute-only-cli"

            def layer_compute(self, workload, design):  # pragma: no cover
                raise NotImplementedError

        SCHEMES.register("compute-only-cli", ComputeOnlyScheme(), replace=True)
        yield "compute-only-cli"
        SCHEMES._entries.pop("compute-only-cli", None)

    def test_with_accuracy_persists_joint_records(self, tmp_path, capsys):
        args = [
            "campaign", "run",
            "--models", "bert-base",
            "--designs", "mokey",
            "--with-accuracy",
            "--store", str(tmp_path / "store"),
            "--format", "json",
        ]
        code, out, err = run_cli(args, capsys)
        assert code == 0
        assert "1 simulated" in err and "1 fidelity evaluated" in err
        rows = json.loads(out)
        assert rows[0]["fp_score"] == pytest.approx(100.0)
        assert "weight_only_err" in rows[0]
        # Second identical run simulates and evaluates nothing.
        code, _out, err = run_cli(args, capsys)
        assert code == 0
        assert "0 simulated" in err and "0 fidelity evaluated" in err

    def test_with_accuracy_unsupported_scheme_is_a_one_line_error(
        self, tmp_path, capsys, compute_only_scheme
    ):
        code, _out, err = run_cli(
            [
                "campaign", "run",
                "--schemes", compute_only_scheme,
                "--with-accuracy",
                "--store", str(tmp_path / "store"),
            ],
            capsys,
        )
        assert code == 2
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "accuracy" in err
        # Nothing was simulated or stored before the failure.
        assert not (tmp_path / "store" / "records.jsonl").exists()


class TestTable1:
    @pytest.fixture(scope="class")
    def table1_store(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("table1") / "store")

    def test_renders_all_eight_paper_rows(self, table1_store, capsys):
        code, out, err = run_cli(
            ["table1", "--store", table1_store, "--format", "json"], capsys
        )
        assert code == 0
        assert "8 Table I fidelity rows" in err
        rows = json.loads(out)
        assert len(rows) == 8
        assert [(r["model"], r["task"]) for r in rows] == [
            ("bert-base", "mnli"),
            ("bert-large", "mnli"),
            ("bert-large", "stsb"),
            ("bert-large", "squad"),
            ("roberta-large", "mnli"),
            ("roberta-large", "stsb"),
            ("roberta-large", "squad"),
            ("deberta-xl", "mnli"),
        ]
        assert {r["metric"] for r in rows} == {"accuracy", "spearman", "f1"}
        for row in rows:
            assert row["fp_score"] >= 99.0
            assert row["paper_fp_score"] != ""

    def test_joint_view_pairs_fidelity_with_speedup(self, table1_store, capsys):
        # Rides on the store the previous test populated: nothing re-runs.
        code, out, err = run_cli(
            ["table1", "--store", table1_store, "--joint", "--format", "json"], capsys
        )
        assert code == 0
        assert "0 simulated, 0 fidelity evaluated" in err
        rows = json.loads(out)
        assert len(rows) == 8
        for row in rows:
            assert row["baseline"] == "tensor-cores"
            assert row["speedup"] > 1.0
            assert row["energy_efficiency"] > 1.0
            assert row["scheme"] == "mokey"
            # Mokey quantizes activations, so the joint view must report
            # the weight+activation error — small but non-zero.
            assert 0.0 < row["fidelity_err"] <= 50.0
            assert row["weight_compression"] > 6.0

    def test_unknown_scheme_is_a_one_line_error(self, tmp_path, capsys):
        code, _out, err = run_cli(
            ["table1", "--scheme", "int3", "--store", str(tmp_path)], capsys
        )
        assert code == 2
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


def test_table1_bad_workers_subprocess_has_no_traceback(tmp_path):
    """A malformed pool width fails in one stderr line, not a traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "table1", "--workers", "0", "--no-store"],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "error: max_workers must be a positive integer or null, got 0"
    ]


class TestSpecDrivenRun:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        from repro.experiments import AxisGrid, CampaignSpec, ExecutionPolicy

        spec = CampaignSpec(
            name="cli-spec",
            axes=AxisGrid(
                models=("bert-base",),
                designs=("mokey", "tensor-cores"),
                buffer_bytes=(512 * 1024,),
            ),
            execution=ExecutionPolicy(
                executor="serial", store=str(tmp_path / "spec-store")
            ),
        )
        path = tmp_path / "spec.json"
        spec.save(path)
        return str(path)

    def test_run_spec_uses_the_policy_store(self, spec_file, tmp_path, capsys):
        code, _out, err = run_cli(["campaign", "run", "--spec", spec_file], capsys)
        assert code == 0
        assert "2 simulated" in err
        assert "executor=serial" in err
        assert str(tmp_path / "spec-store") in err
        # Identical second run resolves everything from the spec's store.
        code, _out, err = run_cli(["campaign", "run", "--spec", spec_file], capsys)
        assert code == 0
        assert "0 simulated" in err

    def test_limit_interrupts_and_resume_completes_bit_identically(
        self, spec_file, tmp_path, capsys
    ):
        from repro.experiments import ArtifactStore

        code, _out, err = run_cli(
            ["campaign", "run", "--spec", spec_file, "--limit", "1", "--progress"], capsys
        )
        assert code == 0
        assert "1 simulated" in err
        assert "interrupted after 1/2" in err
        assert "[1/2]" in err  # --progress streamed a line
        assert len(ArtifactStore(tmp_path / "spec-store")) == 1

        code, _out, err = run_cli(["campaign", "resume", "--spec", spec_file], capsys)
        assert code == 0
        assert "resumed from 1 stored records" in err
        assert "1 simulated" in err and "1 cache hits (1 from store)" in err
        assert len(ArtifactStore(tmp_path / "spec-store")) == 2

    def test_execution_flags_override_the_spec_policy(self, spec_file, tmp_path, capsys):
        code, _out, err = run_cli(
            [
                "campaign", "run",
                "--spec", spec_file,
                "--executor", "thread",
                "--store", str(tmp_path / "override-store"),
            ],
            capsys,
        )
        assert code == 0
        assert "executor=thread" in err
        assert str(tmp_path / "override-store") in err
        assert not (tmp_path / "spec-store").exists()

    def test_spec_with_unknown_design_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"axes": {"designs": ["mokeyy"]}}))
        code, _out, err = run_cli(
            ["campaign", "run", "--spec", str(path), "--no-store"], capsys
        )
        assert code == 2
        assert "did you mean 'mokey'?" in err
        assert len(err.strip().splitlines()) == 1

    def test_unreadable_spec_is_a_usage_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _out, err = run_cli(["campaign", "run", "--spec", str(path), "--no-store"], capsys)
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        code, _out, err = run_cli(
            ["campaign", "run", "--spec", str(tmp_path / "missing.json")], capsys
        )
        assert code == 2
        assert len(err.strip().splitlines()) == 1

    def test_spec_resume_false_resimulates_through_the_cli(self, tmp_path, capsys):
        spec = {
            "axes": {"models": ["bert-base"], "designs": ["mokey"]},
            "execution": {
                "executor": "serial",
                "store": str(tmp_path / "store"),
                "resume": False,
            },
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        for _ in range(2):  # second run must NOT serve from the store
            code, _out, err = run_cli(["campaign", "run", "--spec", str(path)], capsys)
            assert code == 0
            assert "1 simulated, 0 cache hits (0 from store)" in err
        from repro.experiments import ArtifactStore

        assert len(ArtifactStore(tmp_path / "store")) == 1  # but it did persist


class TestRegistryList:
    def test_lists_all_kinds(self, capsys):
        code, out, _err = run_cli(["registry", "list"], capsys)
        assert code == 0
        for kind in (
            "schemes", "designs", "models", "tasks", "engines",
            "stores", "traces", "policies",
        ):
            assert kind in out
        assert "mokey" in out

    def test_expands_one_kind_with_descriptions(self, capsys):
        code, out, _err = run_cli(["registry", "list", "schemes"], capsys)
        assert code == 0
        assert "9 entries" in out
        assert "mokey" in out and "MokeyScheme" in out

    def test_json_format(self, capsys):
        code, out, _err = run_cli(["registry", "list", "designs", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert "mokey" in payload
        code, out, _err = run_cli(["registry", "list", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "schemes", "designs", "models", "tasks", "engines", "stores",
            "traces", "policies",
        }

    def test_unknown_kind_suggests_nearest(self, capsys):
        code, _out, err = run_cli(["registry", "list", "designz"], capsys)
        assert code == 2
        assert "did you mean 'designs'?" in err


class TestServeSim:
    ARGS = [
        "serve-sim",
        "--schemes", "mokey-oc", "fp16",
        "--rate", "100", "--requests", "1000", "--seed", "4",
    ]

    def test_reports_latency_goodput_energy_per_combo(self, tmp_path, capsys):
        code, out, err = run_cli(
            self.ARGS + ["--store", str(tmp_path / "s"), "--format", "json"], capsys
        )
        assert code == 0
        rows = json.loads(out)
        assert [row["scheme"] for row in rows] == ["mokey-oc", "fp16"]
        for row in rows:
            assert row["requests"] == 1000
            assert 0 < row["p50_ms"] <= row["p99_ms"]
            assert row["goodput_rps"] > 0
            assert row["energy_per_request_j"] > 0
            # The headline guarantee: real sims never exceed batch shapes.
            assert row["simulated"] <= row["batch_shapes"]
        assert "2 combos" in err and "batch shapes simulated" in err

    def test_warm_store_rerun_simulates_nothing(self, tmp_path, capsys):
        args = self.ARGS + ["--store", str(tmp_path / "s"), "--format", "json"]
        code, out, err = run_cli(args, capsys)
        assert code == 0
        cold = json.loads(out)
        code, out, err = run_cli(args, capsys)
        assert code == 0
        warm = json.loads(out)
        assert "0 batch shapes simulated" in err
        drop = lambda row: {k: v for k, v in row.items() if k != "simulated"}
        assert [drop(row) for row in warm] == [drop(row) for row in cold]

    def test_executors_and_backends_are_bit_identical(self, tmp_path, capsys):
        outputs = set()
        for backend in ("jsonl", "sqlite"):
            for executor in ("serial", "thread", "process"):
                code, out, _err = run_cli(
                    self.ARGS + [
                        "--store", str(tmp_path / f"{backend}-{executor}"),
                        "--store-backend", backend,
                        "--executor", executor,
                        "--format", "csv",
                    ],
                    capsys,
                )
                assert code == 0
                outputs.add(out)
        assert len(outputs) == 1

    def test_spec_file_round_trip(self, tmp_path, capsys):
        from repro.serving import PolicySpec, ServingSpec, TraceSpec

        spec = ServingSpec(
            schemes=("mokey-oc",),
            trace=TraceSpec(rate_rps=80.0, num_requests=500, seed=9),
            policy=PolicySpec(kind="max-batch", max_batch=4),
            slo_ms=100.0,
        )
        path = tmp_path / "serving.json"
        spec.save(path)
        code, out, err = run_cli(
            ["serve-sim", "--spec", str(path), "--no-store", "--format", "json"], capsys
        )
        assert code == 0
        (row,) = json.loads(out)
        assert row["requests"] == 500
        assert "max-batch(b<=4)" in err

    def test_trace_param_flag_reaches_the_generator(self, tmp_path, capsys):
        base = self.ARGS + ["--trace", "bursty", "--no-store", "--format", "csv"]
        code, calm_out, _err = run_cli(base, capsys)
        assert code == 0
        code, burst_out, _err = run_cli(
            base + ["--trace-param", "burst_factor=12"], capsys
        )
        assert code == 0
        assert calm_out != burst_out

    def test_unknown_trace_and_policy_are_one_line_errors(self, tmp_path, capsys):
        code, _out, err = run_cli(
            ["serve-sim", "--trace", "poison", "--no-store"], capsys
        )
        assert code == 2
        assert "did you mean 'poisson'?" in err
        code, _out, err = run_cli(
            ["serve-sim", "--policy", "continuos", "--no-store"], capsys
        )
        assert code == 2
        assert "did you mean 'continuous'?" in err

    def test_flag_overrides_its_spec_field_and_default_trace_length(self, tmp_path, capsys):
        path = tmp_path / "serving.json"
        path.write_text(json.dumps({"trace": {"num_requests": 300, "seed": 2}}))
        code, out, err = run_cli(
            ["serve-sim", "--spec", str(path), "--requests", "200", "--no-store",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)[0]["requests"] == 200
        assert "seed=2" in err  # fields not flagged stay
        code, out, _err = run_cli(["serve-sim", "--no-store", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)[0]["requests"] == 10_000

    def test_malformed_trace_param_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--trace-param", "amplitude", "--no-store"])
        assert excinfo.value.code == 2
        capsys.readouterr()


def test_table1_unknown_scheme_subprocess_has_no_traceback(tmp_path):
    """End to end: a bad scheme exits 2 with one stderr line, no traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "table1", "--scheme", "nope"],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


class TestStoreBackendsCli:
    def _run_grid(self, store, capsys, backend=None):
        args = [
            "campaign", "run",
            "--models", "bert-base", "bert-large",
            "--designs", "mokey", "tensor-cores",
            "--store", store,
        ]
        if backend is not None:
            args += ["--store-backend", backend]
        return run_cli(args, capsys)

    def test_sqlite_campaign_run_and_cached_rerun(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code, _out, err = self._run_grid(store, capsys, backend="sqlite")
        assert code == 0
        assert "4 simulated" in err
        assert (tmp_path / "store" / "records.sqlite").exists()
        assert not (tmp_path / "store" / "records.jsonl").exists()
        # The second run auto-detects the backend: no --store-backend needed.
        code, _out, err = self._run_grid(store, capsys)
        assert code == 0
        assert "0 simulated" in err

    def test_report_where_and_top_on_sqlite(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self._run_grid(store, capsys, backend="sqlite")
        code, out, _err = run_cli(
            ["campaign", "report", "--store", store, "--where", "design=mokey",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2
        assert {row["design"] for row in rows} == {"mokey"}
        code, out, _err = run_cli(
            ["campaign", "report", "--store", store, "--order-by=-total_cycles",
             "--top", "1", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert len(json.loads(out)) == 1

    def test_report_group_by_on_sqlite(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self._run_grid(store, capsys, backend="sqlite")
        code, out, _err = run_cli(
            ["campaign", "report", "--store", store, "--group-by", "model", "design",
             "--order-by=-count", "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4
        assert all(row["count"] == 1 for row in rows)
        assert {"model", "design", "count", "with_fidelity"} <= set(rows[0])

    def test_report_scheme_combines_with_group_by(self, tmp_path, capsys):
        # --scheme compiles to the effective_scheme pushdown field now, so
        # it composes with --group-by like any other filter (it used to be
        # a Python post-filter that parser.error'd on this combination).
        store = str(tmp_path / "store")
        self._run_grid(store, capsys, backend="sqlite")
        code, out, _err = run_cli(
            ["campaign", "report", "--store", store, "--scheme", "mokey",
             "--group-by", "model", "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert {row["model"] for row in rows} == {"bert-base", "bert-large"}
        assert all(row["count"] == 1 for row in rows)

    @pytest.mark.parametrize(
        "spelling", ["~total_cycles", "total_cycles:desc", "--order-by=-total_cycles"]
    )
    def test_report_order_by_descending_spellings(self, tmp_path, capsys, spelling):
        # '-FIELD' only parses in the equals form (argparse reads a bare
        # '-t...' as a flag); '~FIELD' and 'FIELD:desc' work as plain
        # arguments too, and all three must order identically.
        store = str(tmp_path / "store")
        self._run_grid(store, capsys, backend="sqlite")
        args = ["campaign", "report", "--store", store, "--format", "json"]
        if spelling.startswith("--"):
            args.append(spelling)
        else:
            args += ["--order-by", spelling]
        code, out, _err = run_cli(args, capsys)
        assert code == 0
        cycles = [row["total_cycles"] for row in json.loads(out)]
        assert cycles == sorted(cycles, reverse=True)
        code, out, _err = run_cli(
            ["campaign", "report", "--store", store, "--order-by",
             "total_cycles:asc", "--format", "json"],
            capsys,
        )
        assert code == 0
        ascending = [row["total_cycles"] for row in json.loads(out)]
        assert ascending == list(reversed(cycles))

    def test_report_bad_where_field_is_a_usage_error(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self._run_grid(store, capsys, backend="sqlite")
        code, _out, err = run_cli(
            ["campaign", "report", "--store", store, "--where", "modle=x"], capsys
        )
        assert code == 2
        assert "did you mean 'model'?" in err

    def test_list_on_sqlite_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self._run_grid(store, capsys, backend="sqlite")
        code, out, _err = run_cli(["campaign", "list", "--store", store], capsys)
        assert code == 0
        assert "4 records" in out

    def test_store_migrate_round_trip(self, tmp_path, capsys):
        jsonl_store = str(tmp_path / "a")
        self._run_grid(jsonl_store, capsys)  # default jsonl
        code, out, _err = run_cli(
            ["store", "migrate", jsonl_store, str(tmp_path / "b"),
             "--to-backend", "sqlite"],
            capsys,
        )
        assert code == 0
        assert "migrated 4 records" in out
        assert (tmp_path / "b" / "records.sqlite").exists()
        code, out, _err = run_cli(
            ["store", "migrate", str(tmp_path / "b"), str(tmp_path / "c"),
             "--to-backend", "jsonl"],
            capsys,
        )
        assert code == 0
        assert "migrated 4 records" in out
        original = (tmp_path / "a" / "records.jsonl").read_text()
        round_tripped = (tmp_path / "c" / "records.jsonl").read_text()
        assert round_tripped == original

    def test_store_migrate_missing_source_fails(self, tmp_path, capsys):
        code, _out, err = run_cli(
            ["store", "migrate", str(tmp_path / "nope"), str(tmp_path / "dst")], capsys
        )
        assert code == 2
        assert "no jsonl store at" in err

    def test_registry_list_stores(self, capsys):
        code, out, _err = run_cli(["registry", "list", "stores"], capsys)
        assert code == 0
        assert "jsonl" in out and "sqlite" in out


class TestStoreStats:
    def _populate(self, tmp_path, capsys, backend="sqlite"):
        root = tmp_path / "stats-store"
        code, _out, _err = run_cli(
            [
                "campaign", "run", "--store", str(root),
                "--store-backend", backend,
                "--batch-sizes", "1", "2", "--designs", "mokey", "tensor-cores",
            ],
            capsys,
        )
        assert code == 0
        return str(root)

    def test_stats_reports_counts_and_coverage(self, tmp_path, capsys):
        root = self._populate(tmp_path, capsys)
        code, out, _err = run_cli(["store", "stats", root], capsys)
        assert code == 0
        assert "backend: sqlite (schema v1)" in out
        assert "records: 4 across 2 model x design combos" in out
        assert "fidelity coverage: 0/4" in out
        assert "skipped (unreadable/old-schema): 0" in out

    def test_stats_json_is_parseable(self, tmp_path, capsys):
        root = self._populate(tmp_path, capsys, backend="jsonl")
        code, out, _err = run_cli(["store", "stats", root, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["backend"] == "jsonl"
        assert payload["records"] == 4
        assert payload["schema_version"] == 1
        assert payload["fidelity_coverage"] == 0.0
        assert payload["skipped"] == 0

    def test_stats_counts_skipped_lines(self, tmp_path, capsys):
        root = self._populate(tmp_path, capsys, backend="jsonl")
        with open(tmp_path / "stats-store" / "records.jsonl", "a", encoding="utf-8") as fh:
            fh.write("this is not json\n")
        code, out, _err = run_cli(["store", "stats", root, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["records"] == 4
        assert payload["skipped"] == 1

    def test_stats_missing_store_fails_cleanly(self, tmp_path, capsys):
        code, _out, err = run_cli(["store", "stats", str(tmp_path / "nope")], capsys)
        assert code == 2
        assert "no jsonl store at" in err


def test_python_dash_m_entry_point(tmp_path):
    """The module is runnable as `python -m repro` (what CI exercises)."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", "run", "--no-store"],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "1 simulated" in proc.stderr
