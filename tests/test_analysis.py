"""Tests for the static analyzer: diagnostics framework, linters, SARIF."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import (
    CODES,
    ERROR,
    INFO,
    WARNING,
    AnalysisReport,
    SourceSpan,
    analyze,
    diagnostic,
    lint_program,
    lint_schema,
    quick_lint,
    severity_at_least,
    to_sarif,
)
from repro.cli import main
from repro.core.correspondences import correspondence
from repro.core.pipeline import MappingProblem, MappingSystem
from repro.datalog.program import DatalogProgram, Rule
from repro.dsl.parser import parse_problem_lenient
from repro.errors import ReproError, SchemaError, WeakAcyclicityError
from repro.logic.atoms import RelationalAtom
from repro.logic.terms import NULL_TERM, SkolemTerm, Variable
from repro.model.builder import SchemaBuilder
from repro.scenarios import bundled_problems

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _read(name):
    with open(os.path.join(FIXTURES, name)) as handle:
        return handle.read()


def V(name):
    return Variable(name)


# -- framework -------------------------------------------------------------


class TestDiagnosticsFramework:
    def test_severity_order(self):
        assert severity_at_least(ERROR, WARNING)
        assert severity_at_least(WARNING, WARNING)
        assert not severity_at_least(INFO, WARNING)

    def test_factory_defaults_from_registry(self):
        item = diagnostic("SCH010", "boom")
        assert item.severity == ERROR
        assert item.section == "§3.1"
        assert item.title == "weak-acyclicity violation"

    def test_factory_rejects_unknown_code(self):
        with pytest.raises(KeyError):
            diagnostic("XXX999", "nope")

    def test_registry_codes_are_consistent(self):
        for code, info in CODES.items():
            assert info.code == code
            assert info.severity in (ERROR, WARNING, INFO)
            assert info.section.startswith("§")

    def test_render_includes_span_and_section(self):
        item = diagnostic(
            "SCH001", "dangling", span=SourceSpan(3, file="f.txt")
        )
        assert item.render() == "f.txt:3: SCH001 error: dangling [§3.1]"

    def test_report_queries(self):
        report = AnalysisReport()
        report.add(diagnostic("SCH001", "e1"))
        report.add(diagnostic("MAP001", "w1"))
        assert not report.ok
        assert len(report.errors) == 1
        assert len(report.warnings) == 1
        assert sorted(d.code for d in report) == ["MAP001", "SCH001"]
        assert sorted({d.code for d in report}) == ["MAP001", "SCH001"]
        assert "1 error(s), 1 warning(s)" in report.summary()

    def test_span_not_part_of_equality(self):
        from repro.model.schema import Attribute, ForeignKey

        assert Attribute("a") == Attribute("a", span=SourceSpan(5))
        assert ForeignKey("R", "a", "S") == ForeignKey(
            "R", "a", "S", span=SourceSpan(9)
        )
        assert hash(Attribute("a")) == hash(Attribute("a", span=SourceSpan(5)))

    def test_diagnostic_counters_flow_through_tracer(self):
        from repro.obs import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            diagnostic("DLG001", "unsafe")
        assert tracer.counters == {"lint.DLG001": 1}


# -- schema lint -----------------------------------------------------------


def _schema_with(fks, relations=None, validate=False):
    builder = SchemaBuilder("s")
    for spec in relations or [("R", ("r", "a"), "r"), ("Q", ("q", "b"), "q")]:
        name, attrs, key = spec
        builder.relation(name, *attrs, key=key)
    for relation, attribute, referenced in fks:
        builder.foreign_key(relation, attribute, referenced)
    return builder.build(validate=validate)


class TestSchemaLint:
    def test_clean_schema(self, cars3):
        assert lint_schema(cars3) == []

    def test_sch001_unknown_relation_raises_with_diagnostic(self):
        with pytest.raises(SchemaError) as info:
            _schema_with([("R", "a", "Missing")])
        assert info.value.diagnostic is not None
        assert info.value.diagnostic.code == "SCH001"

    def test_sch002_composite_key_reference(self):
        with pytest.raises(SchemaError) as info:
            _schema_with(
                [("R", "a", "Q")],
                relations=[
                    ("R", ("r", "a"), "r"),
                    ("Q", ("q1", "q2"), ("q1", "q2")),
                ],
            )
        assert info.value.diagnostic.code == "SCH002"

    def test_sch003_duplicate_foreign_key(self):
        with pytest.raises(SchemaError) as info:
            _schema_with([("R", "a", "Q"), ("R", "a", "Q")])
        assert info.value.diagnostic.code == "SCH003"

    def test_sch010_weak_acyclicity(self):
        schema = _schema_with(
            [("R", "a", "Q"), ("Q", "b", "R")], validate=False
        )
        found = lint_schema(schema)
        assert [d.code for d in found] == ["SCH010"]
        assert "R.a" in found[0].message or "Q.b" in found[0].message
        with pytest.raises(WeakAcyclicityError) as info:
            schema.validate()
        assert info.value.diagnostic.code == "SCH010"


# -- datalog lint ----------------------------------------------------------


def _program(rules, **kwargs):
    return DatalogProgram(rules=list(rules), **kwargs)


class TestDatalogLint:
    def test_clean_program(self, figure1_problem):
        program = MappingSystem(figure1_problem).transformation
        assert lint_program(program) == []

    def test_dlg001_unsafe_rule(self):
        x, y = V("x"), V("y")
        rule = Rule(
            head=RelationalAtom("T", (x, y)), body=(RelationalAtom("S", (x,)),)
        )
        found = lint_program(_program([rule]))
        assert "DLG001" in [d.code for d in found]

    def test_dlg002_recursion_cycle_names_closing_rule(self):
        x = V("x")
        a_from_b = Rule(
            head=RelationalAtom("A", (x,)), body=(RelationalAtom("B", (x,)),)
        )
        b_from_a = Rule(
            head=RelationalAtom("B", (x,)), body=(RelationalAtom("A", (x,)),)
        )
        found = lint_program(_program([a_from_b, b_from_a]))
        cycles = [d for d in found if d.code == "DLG002"]
        assert len(cycles) == 1
        assert "closed by rule" in cycles[0].message

    def test_dlg003_dead_intermediate(self):
        x = V("x")
        tmp = Rule(head=RelationalAtom("Tmp", (x,)), body=(RelationalAtom("S", (x,)),))
        main = Rule(head=RelationalAtom("T", (x,)), body=(RelationalAtom("S", (x,)),))
        found = lint_program(_program([main, tmp], intermediates={"Tmp": 1}))
        assert [d.code for d in found] == ["DLG003"]
        assert found[0].severity == WARNING

    def test_dlg004_inconsistent_functor_arity(self):
        x, y = V("x"), V("y")
        one = Rule(
            head=RelationalAtom("T", (x, SkolemTerm("f", (x,)))),
            body=(RelationalAtom("S", (x, y)),),
        )
        two = Rule(
            head=RelationalAtom("T", (x, SkolemTerm("f", (x, y)))),
            body=(RelationalAtom("S", (x, y)),),
        )
        found = lint_program(_program([one, two]))
        assert [d.code for d in found] == ["DLG004"]

    def _null_flow_schemas(self):
        source = (
            SchemaBuilder("src").relation("S", "k", "v?", key="k").build()
        )
        target = (
            SchemaBuilder("tgt").relation("T", "k", "v", key="k").build()
        )
        return source, target

    def test_dlg010_maybe_null_flow_is_warning(self):
        source, target = self._null_flow_schemas()
        k, v = V("k"), V("v")
        rule = Rule(
            head=RelationalAtom("T", (k, v)), body=(RelationalAtom("S", (k, v)),)
        )
        found = lint_program(
            _program([rule], source_schema=source, target_schema=target)
        )
        assert [d.code for d in found] == ["DLG010"]
        assert found[0].severity == WARNING
        assert "T.v" in found[0].subject

    def test_dlg010_always_null_flow_is_error(self):
        source, target = self._null_flow_schemas()
        k = V("k")
        v = V("v")
        rule = Rule(
            head=RelationalAtom("T", (k, NULL_TERM)),
            body=(RelationalAtom("S", (k, v)),),
        )
        found = lint_program(
            _program([rule], source_schema=source, target_schema=target)
        )
        assert [d.code for d in found] == ["DLG010"]
        assert found[0].severity == ERROR

    def test_dlg010_nonnull_condition_silences(self):
        source, target = self._null_flow_schemas()
        k, v = V("k"), V("v")
        rule = Rule(
            head=RelationalAtom("T", (k, v)),
            body=(RelationalAtom("S", (k, v)),),
            nonnull_vars=(v,),
        )
        assert (
            lint_program(_program([rule], source_schema=source, target_schema=target))
            == []
        )

    def test_dlg010_tracks_nulls_through_tmp_relations(self):
        source, target = self._null_flow_schemas()
        k, v = V("k"), V("v")
        k2, v2 = V("k2"), V("v2")
        tmp = Rule(
            head=RelationalAtom("Tmp", (k, v)), body=(RelationalAtom("S", (k, v)),)
        )
        main = Rule(
            head=RelationalAtom("T", (k2, v2)),
            body=(RelationalAtom("Tmp", (k2, v2)),),
        )
        found = lint_program(
            _program(
                [main, tmp],
                source_schema=source,
                target_schema=target,
                intermediates={"Tmp": 2},
            )
        )
        dlg010 = [d for d in found if d.code == "DLG010"]
        assert len(dlg010) == 1

    def test_unsafe_rule_error_carries_diagnostic(self):
        x, y = V("x"), V("y")
        rule = Rule(
            head=RelationalAtom("T", (x, y)), body=(RelationalAtom("S", (x,)),)
        )
        from repro.errors import DatalogError

        with pytest.raises(DatalogError) as info:
            rule.check_safety()
        assert info.value.diagnostic.code == "DLG001"


# -- mapping lint / analyze ------------------------------------------------


class TestAnalyze:
    def test_all_bundled_scenarios_have_no_errors(self):
        for name, problem in bundled_problems().items():
            report = analyze(problem)
            assert report.ok, f"{name}: {report.render()}"

    def test_broken_schema_fixture_codes_and_spans(self):
        problem, parse_diags = parse_problem_lenient(
            _read("broken_schema.problem.txt"), file="broken_schema.problem.txt"
        )
        codes = sorted(d.code for d in parse_diags)
        assert codes == ["SCH001", "SCH002", "SCH010"]
        by_code = {d.code: d for d in parse_diags}
        assert by_code["SCH001"].span.line == 8
        assert by_code["SCH002"].span.line == 8
        assert by_code["SCH010"].span.line == 6
        assert all(
            d.span.file == "broken_schema.problem.txt" for d in parse_diags
        )

    def test_broken_mapping_fixture_codes(self):
        problem, parse_diags = parse_problem_lenient(
            _read("broken_mapping.problem.txt")
        )
        assert parse_diags == []
        report = analyze(problem)
        assert sorted({d.code for d in report}) == ["MAP001", "MAP002", "MAP003"]
        map001 = [d for d in report if d.code == "MAP001"]
        assert map001[0].severity == WARNING
        assert map001[0].span is not None and map001[0].span.line == 13

    def test_analyze_program_directly(self, figure1_problem):
        program = MappingSystem(figure1_problem).transformation
        assert analyze(program).ok

    def test_analyze_schema_directly(self, cars3):
        assert analyze(cars3).ok

    def test_analyze_rejects_other_types(self):
        with pytest.raises(TypeError):
            analyze(42)

    def test_map005_when_generation_fails(self, figure1_problem, monkeypatch):
        from repro.core import pipeline

        def boom(self):
            raise ReproError("synthetic failure")

        monkeypatch.setattr(
            pipeline.MappingSystem, "transformation", property(boom)
        )
        report = analyze(figure1_problem)
        assert "MAP005" in sorted({d.code for d in report})
        assert "synthetic failure" in report.errors[0].message

    def test_carried_diagnostic_is_reused_over_map005(
        self, figure1_problem, monkeypatch
    ):
        from repro.core import pipeline

        carried = diagnostic("MAP002", "carried from the pipeline")

        def boom(self):
            raise ReproError("conflict", diagnostic=carried)

        monkeypatch.setattr(
            pipeline.MappingSystem, "transformation", property(boom)
        )
        report = analyze(figure1_problem)
        assert report.errors == [carried]


class TestQuickLintAndCompile:
    def test_compile_returns_program_and_keeps_report(self, figure1_problem):
        system = MappingSystem(figure1_problem)
        program = system.compile()
        assert len(program.rules) > 0
        assert system.lint_report is not None and system.lint_report.ok

    def test_compile_strict_raises_on_lint_error(self):
        source = SchemaBuilder("s").relation("S", "a", "b").build()
        target = SchemaBuilder("t").relation("T", "x", "y").build()
        problem = MappingProblem(source, target, name="bad")
        problem.add_correspondence("S.b", "T.y")
        system = MappingSystem(problem)
        # Sneak in an invalid correspondence after construction; compile's
        # quick lint must catch it before any pipeline stage runs.
        problem.correspondences.append(correspondence("S.zzz", "T.y"))
        with pytest.raises(ReproError) as info:
            system.compile()
        assert info.value.diagnostic.code == "MAP004"
        assert system.lint_report is not None
        assert not system.lint_report.ok

    def test_compile_strict_tolerates_warnings(self):
        problem = bundled_problems()["example-6-7"]
        system = MappingSystem(problem)
        system.compile()  # MAP001 is only a warning: strict still passes
        assert system.lint_report.warnings

    def test_compile_lint_counters_reach_stats(self):
        problem = bundled_problems()["example-6-7"]
        system = MappingSystem(problem, trace=True)
        system.compile()
        assert system.stats().counters.get("lint.MAP001", 0) >= 1

    def test_quick_lint_runs_no_pipeline_stage(self, figure1_problem):
        report = quick_lint(figure1_problem)
        assert report.ok


# -- SARIF -----------------------------------------------------------------


class TestSarif:
    def _report(self):
        report = AnalysisReport(subject="demo")
        report.add(
            diagnostic(
                "SCH001", "dangling", span=SourceSpan(3, column=7, file="p.txt")
            )
        )
        report.add(diagnostic("MAP001", "uncovered"))
        return report

    def test_structure(self):
        log = to_sarif(self._report())
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert set(CODES) == set(rule_ids)
        results = run["results"]
        assert results[0]["ruleId"] == "SCH001"
        assert results[0]["level"] == "error"
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "p.txt"
        assert location["region"] == {"startLine": 3, "startColumn": 7}
        assert results[1]["level"] == "warning"
        assert "locations" not in results[1]

    def test_rule_index_points_at_rule(self):
        log = to_sarif(self._report())
        run = log["runs"][0]
        for result in run["results"]:
            index = result["ruleIndex"]
            assert run["tool"]["driver"]["rules"][index]["id"] == result["ruleId"]

    def test_validates_against_pinned_schema(self):
        from repro.obs.schema import validate

        schema_path = os.path.join(
            os.path.dirname(__file__), "..", "docs", "sarif_lint.schema.json"
        )
        with open(schema_path) as handle:
            schema = json.load(handle)
        validate(to_sarif(self._report()), schema)
        # An empty report is valid SARIF too.
        validate(to_sarif(AnalysisReport()), schema)


# -- CLI -------------------------------------------------------------------


class TestLintCli:
    BROKEN_SCHEMA = os.path.join(FIXTURES, "broken_schema.problem.txt")
    BROKEN_MAPPING = os.path.join(FIXTURES, "broken_mapping.problem.txt")

    def test_broken_schema_fixture_fails_with_codes(self, capsys):
        assert main(["lint", self.BROKEN_SCHEMA]) == 1
        out = capsys.readouterr().out
        for code in ("SCH001", "SCH002", "SCH010"):
            assert code in out
        assert f"{self.BROKEN_SCHEMA}:8" in out
        assert f"{self.BROKEN_SCHEMA}:6" in out

    def test_broken_mapping_fixture_fails_with_codes(self, capsys):
        assert main(["lint", self.BROKEN_MAPPING]) == 1
        out = capsys.readouterr().out
        for code in ("MAP001", "MAP002", "MAP003"):
            assert code in out
        assert "2 error(s), 1 warning(s)" in out

    def test_fail_on_never(self, capsys):
        assert main(["lint", self.BROKEN_SCHEMA, "--fail-on", "never"]) == 0
        capsys.readouterr()

    def test_clean_scenario_passes(self, capsys):
        assert main(["lint", "--scenario", "figure-1"]) == 0
        out = capsys.readouterr().out
        assert "# figure-1" in out
        assert "0 error(s), 0 warning(s)" in out

    def test_fail_on_warning_promotes_warnings(self, capsys):
        assert main(["lint", "--scenario", "example-6-7"]) == 0
        assert (
            main(["lint", "--scenario", "example-6-7", "--fail-on", "warning"])
            == 1
        )
        capsys.readouterr()

    def test_unknown_scenario_is_usage_error(self, capsys):
        assert main(["lint", "--scenario", "no-such-thing"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_nothing_to_lint_is_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert "nothing to lint" in capsys.readouterr().err

    def test_sarif_format_on_stdout(self, capsys):
        assert main(
            ["lint", self.BROKEN_SCHEMA, "--format", "sarif", "--fail-on", "never"]
        ) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        codes = {r["ruleId"] for r in log["runs"][0]["results"]}
        assert {"SCH001", "SCH002", "SCH010"} <= codes

    def test_sarif_out_validates_against_pinned_schema(self, capsys, tmp_path):
        from repro.obs.schema import validate

        out_path = tmp_path / "lint.sarif"
        assert main(["lint", self.BROKEN_MAPPING, "--sarif-out", str(out_path)]) == 1
        capsys.readouterr()
        with open(
            os.path.join(os.path.dirname(__file__), "..", "docs",
                         "sarif_lint.schema.json")
        ) as handle:
            schema = json.load(handle)
        validate(json.loads(out_path.read_text()), schema)
