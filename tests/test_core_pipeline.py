"""Tests for the MappingSystem facade and MappingProblem."""

import pytest

from repro.core.pipeline import MappingProblem, MappingSystem
from repro.core.schema_mapping import BASIC
from repro.errors import CorrespondenceError
from repro.model.builder import SchemaBuilder
from repro.scenarios import cars


class TestMappingProblem:
    def test_add_correspondence_validates(self, cars3, cars2):
        problem = MappingProblem(cars3, cars2)
        problem.add_correspondence("P3.name", "P2.name")
        with pytest.raises(CorrespondenceError):
            problem.add_correspondence("P3.ghost", "P2.name")
        assert len(problem.correspondences) == 1

    def test_validate_checks_schemas(self):
        bad = (
            SchemaBuilder("bad")
            .relation("E", "id", "m")
            .foreign_key("E", "m", "E")
            .build(validate=False)
        )
        good = SchemaBuilder("ok").relation("T", "id").build()
        problem = MappingProblem(bad, good)
        from repro.errors import WeakAcyclicityError

        with pytest.raises(WeakAcyclicityError):
            problem.validate()


class TestMappingSystem:
    def test_results_cached(self, figure1_problem):
        system = MappingSystem(figure1_problem)
        assert system.schema_mapping_result() is system.schema_mapping_result()
        assert system.query_result() is system.query_result()

    def test_transform_matches_expected_figure3(self, figure1_problem, cars3_instance):
        system = MappingSystem(figure1_problem)
        assert system.transform(cars3_instance) == cars.figure3_expected_target()

    def test_transform_detailed_exposes_intermediates(
        self, figure1_problem, cars3_instance
    ):
        system = MappingSystem(figure1_problem)
        result = system.transform_detailed(cars3_instance)
        assert result.intermediate("OCtmp") == [("c85",)]

    def test_transform_and_run_share_the_default_engine(
        self, figure1_problem, cars3_instance, monkeypatch
    ):
        import repro.core.pipeline as pipeline_module

        engines = []

        def recording(name, real):
            def run(program, source, **kwargs):
                engines.append(name)
                return real(program, source, **kwargs)

            return run

        monkeypatch.setattr(
            pipeline_module, "evaluate", recording("reference", pipeline_module.evaluate)
        )
        monkeypatch.setattr(
            pipeline_module,
            "evaluate_batch",
            recording("batch", pipeline_module.evaluate_batch),
        )
        system = MappingSystem(figure1_problem)
        transformed = system.transform(cars3_instance)
        detailed = system.transform_detailed(cars3_instance).target
        ran = system.run(cars3_instance).target
        assert transformed == detailed == ran
        assert engines == [MappingSystem.DEFAULT_ENGINE] * 3

    def test_basic_and_novel_differ(self, figure1_problem, cars3_instance):
        novel = MappingSystem(figure1_problem)
        basic = MappingSystem(figure1_problem, algorithm=BASIC)
        assert novel.transform(cars3_instance) != basic.transform(cars3_instance)

    def test_empty_source_gives_empty_target(self, figure1_problem):
        from repro.model.instance import Instance

        system = MappingSystem(figure1_problem)
        result = system.transform(Instance(figure1_problem.source_schema))
        assert result.total_size() == 0
