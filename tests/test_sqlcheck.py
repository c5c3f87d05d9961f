"""Tests for the SQL translation validator and the compiled pipeline.

The acceptance bar of the SQL pushdown work: on every bundled scenario,
every emitted statement gets a PROVED round-trip verdict, and the compiled
pipeline's output matches the reference engine up to invented-null
isomorphism.  The structural lints (SQL002–SQL005) are exercised on
hand-built trees the compiler itself never emits.
"""

import pytest

from repro.analysis.semantic.verifier import canonical_instances
from repro.analysis.sqlcheck import (
    PROVED,
    UNKNOWN,
    check_pipeline,
    lower_statement,
)
from repro.core.pipeline import MappingSystem
from repro.datalog.engine import evaluate
from repro.errors import EvaluationError
from repro.model.diff import diff_up_to_invented
from repro.scenarios import bundled_problems
from repro.sqlgen import SqliteExecutor, compile_program
from repro.sqlgen.ast import (
    Cast,
    Cmp,
    Col,
    Concat,
    IfNull,
    InsertSelect,
    Lit,
    SelectItem,
)
from repro.sqlgen.compiler import SqlPipeline
from repro.sqlgen.executor import DuckDbExecutor, duckdb_available
from dataclasses import replace


def _scenario_names():
    return sorted(bundled_problems())


def _program(name):
    return MappingSystem(bundled_problems()[name]).transformation


class TestRoundTripProofs:
    """Every statement of every scenario is PROVED (the tentpole claim)."""

    @pytest.mark.parametrize("name", _scenario_names())
    def test_all_statements_proved(self, name):
        report = check_pipeline(compile_program(_program(name)), subject=name)
        assert report.verdicts, f"no statements for {name!r}"
        not_proved = [v for v in report.verdicts if v.verdict != PROVED]
        assert not not_proved, "\n".join(v.render() for v in not_proved)
        assert report.ok
        assert not report.structural

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_scenarios_all_proved(self, seed):
        """Weakly acyclic generated scenarios certify like the bundled ones."""
        from repro.scenarios.generator import generate_scenario

        scenario = generate_scenario(seed)
        program = MappingSystem(scenario.problem).transformation
        report = check_pipeline(compile_program(program), subject=scenario.name)
        assert report.verdicts
        assert report.ok, "\n".join(
            v.render() for v in report.verdicts if v.verdict != PROVED
        )

    def test_proved_verdicts_carry_both_witnesses(self):
        pipeline = compile_program(_program("figure-1"))
        report = check_pipeline(pipeline, subject="figure-1")
        for verdict in report.verdicts:
            assert "sql ⊆ rule" in verdict.witness
            assert "rule ⊆ sql" in verdict.witness

    def test_report_shapes(self):
        pipeline = compile_program(_program("figure-1"))
        report = check_pipeline(pipeline, subject="figure-1")
        data = report.to_dict()
        assert data["ok"] is True
        assert data["counts"][PROVED] == len(report.verdicts)
        assert all(v["sql"].startswith("INSERT INTO") for v in data["verdicts"])
        assert "sqlcheck:" in report.summary()


class TestPipelineDifferential:
    """The compiled pipeline agrees with the reference engine everywhere."""

    @pytest.mark.parametrize("name", _scenario_names())
    def test_pipeline_matches_reference(self, name):
        program = _program(name)
        executor = SqliteExecutor()
        checked = 0
        for label, instance in canonical_instances(program):
            reference = evaluate(program, instance)
            compiled_target = executor.run(program, instance)
            diff = diff_up_to_invented(reference.target, compiled_target)
            assert diff.empty, f"{name} / {label}:\n{diff.to_text()}"
            checked += 1
        assert checked > 0


class TestStructuralLints:
    """SQL002–SQL005 on hand-built trees the compiler never emits."""

    def _pipeline_with(self, program, node, **overrides):
        compiled = compile_program(program)
        first = next(s for s in compiled.statements if s.kind == "insert")
        statement = replace(first, node=node, **overrides)
        return SqlPipeline(program=program, statements=(statement,))

    def _first_insert(self, program):
        compiled = compile_program(program)
        return next(s for s in compiled.statements if s.kind == "insert")

    def test_sql002_raw_is_between_computed_expressions(self):
        program = _program("figure-1")
        first = self._first_insert(program)
        select = first.node.select
        bad_where = select.where + (
            Cmp("IS", Cast(Col("t0", "person"), "TEXT"), Lit("x")),
        )
        bad = InsertSelect(first.node.table, replace(select, where=bad_where))
        report = check_pipeline(self._pipeline_with(program, bad))
        assert "SQL002" in [f.code for f in report.structural]
        assert not report.ok

    def test_sql003_ambiguous_skolem_encoding(self):
        program = _program("figure-1")
        first = self._first_insert(program)
        select = first.node.select
        legacy = Concat(
            (
                Lit("\x02f("),
                IfNull(Cast(Col("t0", "person"), "TEXT"), Lit("null")),
                Lit(","),
                IfNull(Cast(Col("t0", "name"), "TEXT"), Lit("null")),
                Lit(")"),
            )
        )
        items = (SelectItem(legacy, select.items[0].alias),) + select.items[1:]
        bad = InsertSelect(first.node.table, replace(select, items=items))
        report = check_pipeline(self._pipeline_with(program, bad))
        assert "SQL003" in [f.code for f in report.structural]

    def test_canonical_encoding_is_not_flagged(self):
        # The compiler's own output must never trip SQL003.
        report = check_pipeline(compile_program(_program("figure-10")))
        assert "SQL003" not in [f.code for f in report.structural]

    def test_sql004_missing_dedup(self):
        program = _program("figure-1")
        first = self._first_insert(program)
        select = replace(first.node.select, distinct=False)
        bad = InsertSelect(first.node.table, select, dedup=None)
        report = check_pipeline(self._pipeline_with(program, bad))
        assert "SQL004" in [f.code for f in report.structural]

    def test_sql005_reordered_pipeline(self):
        # figure-1 negates OCtmp: moving its inserts after the reader makes
        # the pipeline order-dependent.
        program = _program("figure-1")
        compiled = compile_program(program)
        creates = tuple(s for s in compiled.statements if s.kind == "create")
        inserts = [s for s in compiled.statements if s.kind == "insert"]
        readers = [s for s in inserts if "OCtmp" in s.reads]
        writers = [s for s in inserts if s.writes == "OCtmp"]
        others = [s for s in inserts if s not in readers and s not in writers]
        reordered = SqlPipeline(
            program=program,
            statements=creates + tuple(readers + others + writers),
        )
        report = check_pipeline(reordered)
        assert "SQL005" in [f.code for f in report.structural]
        assert not report.ok

    def test_compiled_order_has_no_sql005(self):
        for name in ("figure-1", "figure-12", "publications"):
            report = check_pipeline(compile_program(_program(name)))
            assert "SQL005" not in [f.code for f in report.structural], name


class TestUnknownVerdicts:
    def test_statement_without_rule_is_unknown(self):
        program = _program("figure-1")
        compiled = compile_program(program)
        first = next(s for s in compiled.statements if s.kind == "insert")
        orphan = replace(first, rule=None)
        report = check_pipeline(
            SqlPipeline(program=program, statements=(orphan,))
        )
        assert report.verdicts[0].verdict == UNKNOWN
        assert "SQL001" in [d.code for d in report.diagnostics]

    def test_mismatched_rule_is_unknown(self):
        # Pair one rule's SQL with a different rule: no equivalence proof.
        program = _program("figure-1")
        compiled = compile_program(program)
        inserts = [s for s in compiled.statements if s.kind == "insert"]
        same_relation = [s for s in inserts if s.writes == "C2"]
        assert len(same_relation) >= 2
        crossed = replace(same_relation[0], rule=same_relation[1].rule)
        report = check_pipeline(
            SqlPipeline(program=program, statements=(crossed,))
        )
        assert report.verdicts[0].verdict == UNKNOWN
        assert not report.ok

    def test_unloweralbe_expression_reports_reason(self):
        program = _program("figure-1")
        first = next(
            s for s in compile_program(program).statements if s.kind == "insert"
        )
        select = first.node.select
        weird = Cast(Col("t0", select.items[0].expr.column), "INTEGER")
        items = (SelectItem(weird, select.items[0].alias),) + select.items[1:]
        bad = InsertSelect(first.node.table, replace(select, items=items))
        lowering = lower_statement(bad, program)
        assert lowering.query is None
        assert lowering.reason


class TestMappingSystemIntegration:
    def test_sql_report_is_cached(self):
        system = MappingSystem(bundled_problems()["figure-1"])
        assert system.sql_report() is system.sql_report()

    def test_cache_invalidated_on_problem_mutation(self):
        problem = bundled_problems()["figure-1"]
        system = MappingSystem(problem)
        first = system.sql_report()
        # Re-adding an equivalent correspondence changes the fingerprint.
        existing = problem.correspondences[0]
        problem.correspondences.append(existing)
        try:
            assert system.sql_report() is not first
        finally:
            problem.correspondences.pop()

    def test_sql_pipeline_renders_both_dialects(self):
        from repro.sqlgen import DUCKDB, SQLITE

        system = MappingSystem(bundled_problems()["figure-1"])
        pipeline = system.sql_pipeline()
        sqlite_sql = "\n".join(pipeline.sql(SQLITE))
        duckdb_sql = "\n".join(pipeline.sql(DUCKDB))
        assert " IS " in sqlite_sql
        assert "IS NOT DISTINCT FROM" in duckdb_sql

    def test_metrics_family_emitted(self):
        system = MappingSystem(bundled_problems()["figure-1"], trace=True)
        system.sql_report()
        snapshot = system.metrics_snapshot()
        families = {m["name"] for m in snapshot["metrics"]}
        assert "sqlcheck.statements" in families
        assert "sqlcheck.runs" in families


class TestCli:
    def test_sql_check_all_proved(self, capsys):
        from repro.cli import main

        exit_code = main(["sql", "--scenario", "figure-1", "--check"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "PROVED" in output
        assert "CREATE TABLE" in output

    def test_sql_json_dump(self, capsys):
        import json

        from repro.cli import main

        exit_code = main(["sql", "--scenario", "figure-1", "--json", "--check"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["check"]["ok"] is True
        assert payload["statements"]

    def test_lint_sql_clean(self, capsys):
        from repro.cli import main

        exit_code = main(["lint", "--sql", "--scenario", "figure-1"])
        assert exit_code == 0

    def test_sql_duckdb_dialect(self, capsys):
        from repro.cli import main

        exit_code = main(
            ["sql", "--scenario", "figure-1", "--dialect", "duckdb"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "IS NOT DISTINCT FROM" in output


class TestDuckDbGating:
    def test_constructor_gated(self):
        if duckdb_available():
            pytest.skip("duckdb installed: gating not observable")
        with pytest.raises(EvaluationError):
            DuckDbExecutor()

    @pytest.mark.skipif(not duckdb_available(), reason="duckdb not installed")
    def test_duckdb_matches_reference(self):
        program = _program("figure-1")
        for label, instance in canonical_instances(program):
            reference = evaluate(program, instance)
            target = DuckDbExecutor().run(program, instance)
            diff = diff_up_to_invented(reference.target, target)
            assert diff.empty, f"{label}:\n{diff.to_text()}"
