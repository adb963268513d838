"""Tests for the unified registry surface (:mod:`repro.registry`)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.experiments.scenario import Scenario
from repro.registry import (
    DESIGNS,
    ENGINES,
    MODELS,
    REGISTRIES,
    SCHEMES,
    TASKS,
    Registry,
    RegistryError,
    get_registry,
    nearest_match,
    registry_kinds,
)


class TestProtocol:
    def test_kinds_cover_every_pluggable_axis(self):
        assert registry_kinds() == (
            "designs", "engines", "models", "policies", "schemes", "tasks", "traces",
        )
        for kind in registry_kinds():
            assert get_registry(kind) is REGISTRIES[kind]

    def test_names_are_sorted_and_iterable(self):
        for kind in registry_kinds():
            registry = get_registry(kind)
            assert registry.names() == tuple(sorted(registry.names()))
            assert list(registry) == list(registry.names())
            assert len(registry) == len(registry.names())

    def test_describe_returns_one_line_per_entry(self):
        for kind in registry_kinds():
            registry = get_registry(kind)
            described = registry.describe()
            assert set(described) == set(registry.names())
            for name, line in described.items():
                assert isinstance(line, str) and line
                assert "\n" not in line
                assert line == registry.describe(name)

    def test_membership(self):
        assert "mokey" in SCHEMES and "mokey" in DESIGNS
        assert "bert-base" in MODELS
        assert "mnli" in TASKS and "classification" in TASKS
        assert "vectorized" in ENGINES and "torch" in ENGINES
        assert "nope" not in SCHEMES

    def test_engine_descriptions_are_static_strings(self):
        # This suite must pass in torch-less environments: describing the
        # torch backend comes from a static table, never from importing it.
        from repro.core.index_compute import ENGINE_DESCRIPTIONS

        described = ENGINES.describe()
        assert described.keys() == set(ENGINES.names())
        assert described["torch"] == ENGINE_DESCRIPTIONS["torch"]
        assert "einsum" in described["torch"]
        assert "oracle" in described["vectorized"]


class TestErrors:
    def test_unknown_name_names_registry_and_nearest_match(self):
        with pytest.raises(RegistryError) as excinfo:
            DESIGNS.get("mokeyy")
        message = str(excinfo.value)
        assert "'designs' registry" in message
        assert "did you mean 'mokey'?" in message
        assert excinfo.value.kind == "designs"
        assert excinfo.value.suggestion == "mokey"

    def test_unknown_name_without_a_near_match_lists_entries(self):
        with pytest.raises(RegistryError) as excinfo:
            MODELS.get("zzzzzz")
        message = str(excinfo.value)
        assert "'models' registry" in message
        assert "did you mean" not in message
        assert "bert-base" in message
        assert excinfo.value.suggestion is None

    def test_unknown_kind_suggests_nearest_kind(self):
        with pytest.raises(RegistryError) as excinfo:
            get_registry("designz")
        assert "did you mean 'designs'?" in str(excinfo.value)

    def test_registry_error_is_a_value_error(self):
        # Callers that catch ValueError for a bad name keep working.
        with pytest.raises(ValueError):
            SCHEMES.get("nonexistent")

    def test_scheme_and_design_lookups_suggest(self):
        with pytest.raises(ValueError, match="did you mean 'mokey'"):
            SCHEMES.get("mokeyy")
        with pytest.raises(ValueError, match="did you mean 'tensor-cores'"):
            Scenario(design="tensor-core").build_design()

    def test_nearest_match_helper(self):
        assert nearest_match("mokeyy", ("mokey", "gobo")) == "mokey"
        assert nearest_match("zzz", ("mokey", "gobo")) is None


class TestRegistration:
    def test_registered_design_builds_through_a_scenario(self):
        from repro.accelerator.mokey_accel import mokey_design

        DESIGNS.register("test-registry-design", mokey_design)
        try:
            assert "test-registry-design" in DESIGNS.names()
            scenario = Scenario(design="test-registry-design")
            assert scenario.build_design().datapath == "mokey"
        finally:
            DESIGNS._entries.pop("test-registry-design")
        assert "test-registry-design" not in DESIGNS

    def test_duplicate_registration_needs_replace(self):
        with pytest.raises(RegistryError, match="already registered"):
            DESIGNS.register("mokey", DESIGNS.get("mokey"))
        DESIGNS.register("mokey", DESIGNS.get("mokey"), replace=True)

    def test_entry_decorator(self):
        from repro.accelerator.gobo_accel import gobo_design

        @DESIGNS.entry("test-entry-design")
        def factory():
            return gobo_design()

        try:
            assert DESIGNS.get("test-entry-design") is factory
        finally:
            DESIGNS._entries.pop("test-entry-design")

    def test_scheme_registration_checks_instance_name(self):
        scheme = SCHEMES.get("mokey")
        with pytest.raises(RegistryError, match="names itself"):
            SCHEMES.register("not-mokey", scheme)

    def test_empty_name_rejected(self):
        with pytest.raises(RegistryError, match="empty name"):
            DESIGNS.register("", lambda: None)


class TestLiveView:
    def test_registry_is_a_live_view_not_a_copy(self):
        from repro.transformer.model_zoo import MODEL_CONFIGS

        before = MODELS.names()
        MODEL_CONFIGS["test-live-model"] = MODEL_CONFIGS["bert-base"]
        try:
            assert "test-live-model" in MODELS
            assert "test-live-model" in MODELS.names()
        finally:
            del MODEL_CONFIGS["test-live-model"]
        assert MODELS.names() == before

    def test_task_registration_reaches_the_task_families(self):
        """TASKS wraps TASK_FAMILIES: a task registered here lands in the
        zoo's data, and one added there is immediately validatable here."""
        from repro.transformer.tasks import TASK_FAMILIES

        TASKS.register("test-boolq", "classification")
        try:
            assert TASK_FAMILIES["test-boolq"] == "classification"
            assert "test-boolq" in TASKS
            assert TASKS.get("test-boolq") == "classification"
        finally:
            del TASK_FAMILIES["test-boolq"]
        assert "test-boolq" not in TASKS

        TASK_FAMILIES["test-direct"] = "qa"
        try:
            assert "test-direct" in TASKS
            assert "qa" in TASKS.describe("test-direct")
        finally:
            del TASK_FAMILIES["test-direct"]

    def test_task_registration_rejects_unknown_families(self):
        with pytest.raises(RegistryError, match="family"):
            TASKS.register("test-bad", "summarisation")

    def test_family_names_are_readonly_virtual_entries(self):
        assert TASKS.get("classification") == "classification"
        with pytest.raises(RegistryError, match="already registered"):
            TASKS.register("mnli", "classification")
        with pytest.raises(RegistryError, match="already registered"):
            TASKS.register("classification", "classification")  # virtual name


#: Every axis module and the names its registry holds once ``repro`` loads.
AXIS_MODULES = {
    "schemes": ("repro.schemes.base", (
        "fp16", "gobo", "ibert", "mokey", "mokey-oc", "mokey-oc+on",
        "q8bert", "qbert", "ternarybert",
    )),
    "designs": ("repro.experiments.scenario", (
        "gobo", "mokey", "tensor-cores", "tensor-cores+mokey-oc",
        "tensor-cores+mokey-oc+on",
    )),
    "traces": ("repro.serving.traces", ("bursty", "diurnal", "poisson")),
    "policies": ("repro.serving.policies", ("continuous", "max-batch", "timeout")),
    "engines": ("repro.core.index_compute", ("scalar", "torch", "vectorized")),
    "models": ("repro.transformer.model_zoo", (
        "bert-base", "bert-large", "deberta-xl", "roberta-large",
    )),
    "tasks": ("repro.transformer.tasks", (
        "classification", "mnli", "qa", "regression", "squad", "stsb",
    )),
}


@pytest.mark.parametrize("kind", sorted(AXIS_MODULES))
def test_each_axis_module_imports_first_without_a_cycle(kind):
    """A fresh interpreter that imports the axis module before anything
    else sees every registry fully populated."""
    module, expected = AXIS_MODULES[kind]
    code = (
        f"import {module}\n"
        "from repro.registry import get_registry\n"
        f"print(','.join(get_registry({kind!r}).names()))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert tuple(out.strip().split(",")) == expected


@pytest.mark.parametrize("module", ["repro._registry", "repro._fields"])
def test_leaf_modules_import_nothing_from_repro(module):
    """Every axis module (and every ``from_dict``) imports these two
    without a cycle because they import nothing from ``repro``."""
    import ast
    import importlib

    tree = ast.parse(open(importlib.import_module(module).__file__).read())
    imported = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in (
            [node.module or ""] if isinstance(node, ast.ImportFrom)
            else [alias.name for alias in node.names]
        )
    ]
    assert imported and not [name for name in imported if name.split(".")[0] == "repro"]
