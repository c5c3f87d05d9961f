"""Tests for the explain/report renderers."""

from repro.core.pipeline import MappingSystem
from repro.dsl.report import explain, render_conflict_report, render_generation_report
from repro.scenarios import cars


class TestReports:
    def test_generation_report_mentions_prunes(self, figure1_problem):
        system = MappingSystem(figure1_problem)
        text = render_generation_report(system.schema_mapping_result().report)
        assert "skeletons examined: 9" in text
        assert "subsumption" in text
        assert "nonnull-extension" in text
        assert "[kept  ]" in text and "[pruned]" in text

    def test_conflict_report(self, figure1_problem):
        system = MappingSystem(figure1_problem)
        text = render_conflict_report(system)
        assert "key conflicts" in text
        assert "soft" in text

    def test_conflict_report_basic(self, figure1_problem):
        system = MappingSystem(figure1_problem, algorithm="basic")
        text = render_conflict_report(system)
        assert "no key management" in text

    def test_explain_full(self, figure1_problem):
        text = explain(MappingSystem(figure1_problem))
        for section in (
            "schema mapping generation",
            "query generation",
            "transformation",
        ):
            assert section in text

    def test_explain_mentions_fusion(self):
        text = explain(MappingSystem(cars.figure12_problem()))
        assert "fused mappings added" in text

    def test_explain_mentions_unification(self):
        from repro.scenarios.appendix_c import example_6_7_problem

        text = explain(MappingSystem(example_6_7_problem()))
        assert "unified Skolem functors" in text
