"""Tests for the unified registry surface (:mod:`repro.registry`)."""

import pytest

from repro.experiments.scenario import DESIGN_FACTORIES, available_designs, build_design
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
from repro.schemes import available_schemes, get_scheme


class TestProtocol:
    def test_kinds_cover_every_pluggable_axis(self):
        assert registry_kinds() == (
            "designs", "engines", "models", "policies",
            "schemes", "stores", "tasks", "traces",
        )
        for kind in registry_kinds():
            assert get_registry(kind) is REGISTRIES[kind]

    def test_names_are_sorted_and_iterable(self):
        for kind in registry_kinds():
            registry = get_registry(kind)
            assert registry.names() == tuple(sorted(registry.names()))
            assert list(registry) == list(registry.names())
            assert len(registry) == len(registry.names())

    def test_schemes_view_matches_legacy_registry(self):
        assert SCHEMES.names() == available_schemes()
        for name in SCHEMES.names():
            assert SCHEMES.get(name) is get_scheme(name)

    def test_designs_view_matches_legacy_registry(self):
        assert DESIGNS.names() == available_designs()
        for name in DESIGNS.names():
            assert DESIGNS.get(name) is DESIGN_FACTORIES[name]

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

    def test_engines_view_matches_backend_mapping(self):
        from repro.core.index_compute import ENGINE_BACKENDS, available_engines

        assert ENGINES.names() == available_engines()
        for name in ENGINES.names():
            assert ENGINES.get(name) is ENGINE_BACKENDS[name]

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
        # Callers that caught ValueError from the legacy helpers keep working.
        with pytest.raises(ValueError):
            SCHEMES.get("nonexistent")

    def test_legacy_lookup_errors_gained_suggestions(self):
        with pytest.raises(ValueError, match="did you mean 'mokey'"):
            get_scheme("mokeyy")
        with pytest.raises(ValueError, match="did you mean 'tensor-cores'"):
            build_design("tensor-core")

    def test_nearest_match_helper(self):
        assert nearest_match("mokeyy", ("mokey", "gobo")) == "mokey"
        assert nearest_match("zzz", ("mokey", "gobo")) is None


class TestRegistration:
    def test_register_is_visible_to_legacy_helpers_and_back(self):
        from repro.accelerator.mokey_accel import mokey_design

        DESIGNS.register("test-registry-design", mokey_design)
        try:
            assert "test-registry-design" in available_designs()
            assert build_design("test-registry-design").datapath == "mokey"
        finally:
            del DESIGN_FACTORIES["test-registry-design"]
        assert "test-registry-design" not in DESIGNS

    def test_duplicate_registration_needs_replace(self):
        with pytest.raises(RegistryError, match="already registered"):
            DESIGNS.register("mokey", DESIGN_FACTORIES["mokey"])
        DESIGNS.register("mokey", DESIGN_FACTORIES["mokey"], replace=True)

    def test_entry_decorator(self):
        from repro.accelerator.gobo_accel import gobo_design

        @DESIGNS.entry("test-entry-design")
        def factory():
            return gobo_design()

        try:
            assert DESIGNS.get("test-entry-design") is factory
        finally:
            del DESIGN_FACTORIES["test-entry-design"]

    def test_scheme_registration_checks_instance_name(self):
        scheme = SCHEMES.get("mokey")
        with pytest.raises(RegistryError, match="names itself"):
            SCHEMES.register("not-mokey", scheme)

    def test_empty_name_rejected(self):
        with pytest.raises(RegistryError, match="empty name"):
            DESIGNS.register("", lambda: None)


class TestLiveView:
    def test_registry_is_a_live_view_not_a_copy(self):
        before = DESIGNS.names()
        DESIGN_FACTORIES["test-live-design"] = DESIGN_FACTORIES["mokey"]
        try:
            assert "test-live-design" in DESIGNS
            assert "test-live-design" in DESIGNS.names()
        finally:
            del DESIGN_FACTORIES["test-live-design"]
        assert DESIGNS.names() == before

    def test_task_registration_reaches_the_task_helpers(self):
        """TASKS is a live view over TASK_FAMILIES: a task registered here
        resolves through task_family (so it actually runs), and one added
        there is immediately validatable here."""
        from repro.transformer.tasks import TASK_FAMILIES, task_family

        TASKS.register("test-boolq", "classification")
        try:
            assert task_family("test-boolq") == "classification"
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
