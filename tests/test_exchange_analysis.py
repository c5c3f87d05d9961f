"""Tests for the semantic transformation analysis."""

import pytest

from repro.core.pipeline import MappingSystem
from repro.core.schema_mapping import BASIC
from repro.exchange import analysis as analysis_module
from repro.exchange.analysis import analyze_transformation
from repro.model.instance import instance_from_dict
from repro.scenarios import cars


class TestNovelAnalysis:
    def test_figure1_analysis(self, figure1_problem, cars3_instance):
        system = MappingSystem(figure1_problem)
        analysis = analyze_transformation(system, cars3_instance)
        assert analysis.validation.ok
        assert analysis.is_canonical_null_policy
        assert analysis.metrics.distinct_invented == 0
        assert "canonical (null pol): True" in analysis.summary()

    def test_figure10_sound_but_not_null_canonical(self, cars3_instance):
        # Mandatory owners force invented values; the output is homomorphic
        # to the canonical solution but keeps its Skolem structure.
        system = MappingSystem(cars.figure10_problem())
        analysis = analyze_transformation(system, cars3_instance)
        assert analysis.validation.ok
        assert analysis.is_sound_wrt_canonical
        assert analysis.metrics.distinct_invented > 0


class TestBasicAnalysis:
    def test_figure1_basic_analysis(self, figure1_problem, cars3_instance):
        system = MappingSystem(figure1_problem, algorithm=BASIC)
        analysis = analyze_transformation(system, cars3_instance)
        assert not analysis.validation.ok  # Figure 2's key violation
        assert not analysis.is_canonical_null_policy
        assert analysis.metrics.useless_tuples == 2

    def test_summary_is_printable(self, figure1_problem, cars3_instance):
        system = MappingSystem(figure1_problem, algorithm=BASIC)
        analysis = analyze_transformation(system, cars3_instance)
        text = analysis.summary()
        assert "key violation" in text
        assert "useless tuples:       2" in text


class TestCanonicalSolutionFailures:
    def test_failing_egd_chase_clears_all_flags(self, figure1_problem, cars3_instance):
        # Two P3 rows share the key p1 with different names: the target key
        # of P2 cannot hold, so no canonical solution exists.
        source = instance_from_dict(
            cars3_instance.schema,
            {"P3": [("p1", "John", "j@x"), ("p1", "Jim", "j@x")]},
        )
        analysis = analyze_transformation(MappingSystem(figure1_problem), source)
        assert not analysis.is_canonical_null_policy
        assert not analysis.is_sound_wrt_canonical
        assert not analysis.is_complete_wrt_canonical

    def test_chase_defect_propagates(
        self, monkeypatch, figure1_problem, cars3_instance
    ):
        def broken_chase(*args, **kwargs):
            raise TypeError("defect in the chase")

        monkeypatch.setattr(
            analysis_module, "canonical_universal_solution", broken_chase
        )
        with pytest.raises(TypeError, match="defect in the chase"):
            analyze_transformation(MappingSystem(figure1_problem), cars3_instance)
