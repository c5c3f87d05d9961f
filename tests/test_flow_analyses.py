"""Tests for the flow engine's client analyses and ``FLW*`` diagnostics."""

from __future__ import annotations

import pytest

from repro.analysis import SourceSpan
from repro.analysis.flow import (
    DET,
    MAYBE,
    NO,
    OPEN,
    SKEY,
    YES,
    KeyOriginAnalysis,
    NullabilityAnalysis,
    ProvenanceAnalysis,
    analyze_flow,
    functionality_records,
    rule_term_status,
    solve,
)
from repro.analysis.flow.lattice import BOTTOM
from repro.analysis.flow.provenance import (
    CONST_ORIGIN,
    NULL_ORIGIN,
    format_origin,
    skolem_origin,
    source_origin,
)
from repro.core.pipeline import MappingProblem, MappingSystem
from repro.datalog.program import DatalogProgram, Rule
from repro.dsl.parser import parse_problem
from repro.logic.atoms import Equality, RelationalAtom
from repro.logic.terms import NULL_TERM, Constant, SkolemTerm, Variable
from repro.model.builder import SchemaBuilder


def V(name):
    return Variable(name)


def schema(name, *relations, fks=()):
    builder = SchemaBuilder(name)
    for rel, attrs, key in relations:
        builder.relation(rel, *attrs, key=key)
    for rel, attr, referenced in fks:
        builder.foreign_key(rel, attr, referenced)
    return builder.build(validate=False)


# -- nullability -----------------------------------------------------------


class TestRuleTermStatus:
    def _solved(self, program):
        return solve(program, NullabilityAnalysis(program))

    def _program(self, rule, source=None, target=None):
        return DatalogProgram(
            rules=[rule], source_schema=source, target_schema=target
        )

    def test_fixed_terms(self):
        x = V("x")
        rule = Rule(
            RelationalAtom("T", (NULL_TERM, Constant("c"), SkolemTerm("f", (x,)))),
            (RelationalAtom("R", (x,)),),
        )
        env = self._solved(self._program(rule)).env
        assert rule_term_status(NULL_TERM, rule, env) == YES
        assert rule_term_status(Constant("c"), rule, env) == NO
        assert rule_term_status(SkolemTerm("f", (x,)), rule, env) == NO

    def test_rule_conditions_override_positions(self):
        x, y, z, w = V("x"), V("y"), V("z"), V("w")
        rule = Rule(
            RelationalAtom("T", (x, y, z, w)),
            (RelationalAtom("R", (x, y, z, w)),),
            nonnull_vars=(x,),
            null_vars=(y,),
            equalities=(Equality(z, Constant("k")),),
        )
        env = self._solved(self._program(rule)).env
        assert rule_term_status(x, rule, env) == NO
        assert rule_term_status(y, rule, env) == YES
        assert rule_term_status(z, rule, env) == NO  # equated to a constant
        assert rule_term_status(w, rule, env) == MAYBE  # opaque R: unknown

    def test_variable_meets_over_bound_positions(self):
        source = schema(
            "s",
            ("R", ("a", "b?"), "a"),
            ("Q", ("c",), "c"),
        )
        x, y = V("x"), V("y")
        # y is bound at a nullable R position AND a mandatory Q position:
        # the join over rows satisfying both is non-null.
        rule = Rule(
            RelationalAtom("T", (x, y)),
            (RelationalAtom("R", (x, y)), RelationalAtom("Q", (y,))),
        )
        program = self._program(rule, source=source)
        env = self._solved(program).env
        assert rule_term_status(x, rule, env) == NO
        assert rule_term_status(y, rule, env) == NO

    def test_contradictory_binding_is_bottom_and_rule_derives_nothing(self):
        source = schema("s", ("R", ("a",), "a"))
        x = V("x")
        rule = Rule(
            RelationalAtom("T", (x,)),
            (RelationalAtom("R", (x,)),),
            null_vars=(x,),
        )
        # x = null over a mandatory source column: no binding exists.  The
        # per-term status via conditions is YES, but the analysis' transfer
        # must notice the meet with the position is BOTTOM.
        program = self._program(rule, source=source)
        analysis = NullabilityAnalysis(program)
        result = solve(program, analysis)
        # rule_term_status answers per the rule conditions first:
        assert rule_term_status(x, rule, result.env) == YES
        # ... and the solved state still reports what flows into T.
        assert result.value("T", 0) == YES


class TestNullabilitySeeds:
    def test_schema_seed_and_opaque_seed(self):
        source = schema("s", ("R", ("a", "b?"), "a"))
        program = DatalogProgram(rules=[], source_schema=source)
        analysis = NullabilityAnalysis(program)
        assert analysis.seed("R", 0) == NO
        assert analysis.seed("R", 1) == MAYBE
        assert analysis.seed("Mystery", 0) == MAYBE


# -- provenance ------------------------------------------------------------


class TestProvenance:
    def test_seed_origins(self):
        source = schema("s", ("R", ("a", "b?"), "a"))
        program = DatalogProgram(rules=[], source_schema=source)
        analysis = ProvenanceAnalysis(program)
        assert analysis.seed("R", 0) == {source_origin("R", "a")}
        assert analysis.seed("R", 1) == {source_origin("R", "b"), NULL_ORIGIN}
        assert analysis.seed("Mystery", 0) == {("extern", "Mystery")}

    def test_term_origins_through_transfer(self):
        source = schema("s", ("R", ("a", "b?"), "a"))
        x, y = V("x"), V("y")
        rule = Rule(
            RelationalAtom(
                "T",
                (x, y, SkolemTerm("f", (x,)), Constant("c"), NULL_TERM),
            ),
            (RelationalAtom("R", (x, y)),),
        )
        program = DatalogProgram(rules=[rule], source_schema=source)
        result = solve(program, ProvenanceAnalysis(program))
        assert result.value("T", 0) == {source_origin("R", "a")}
        assert result.value("T", 1) == {source_origin("R", "b"), NULL_ORIGIN}
        assert result.value("T", 2) == {skolem_origin("f")}
        assert result.value("T", 3) == {CONST_ORIGIN}
        assert result.value("T", 4) == {NULL_ORIGIN}

    def test_nonnull_condition_filters_the_null_origin(self):
        source = schema("s", ("R", ("a", "b?"), "a"))
        x, y = V("x"), V("y")
        rule = Rule(
            RelationalAtom("T", (y,)),
            (RelationalAtom("R", (x, y)),),
            nonnull_vars=(y,),
        )
        program = DatalogProgram(rules=[rule], source_schema=source)
        result = solve(program, ProvenanceAnalysis(program))
        assert result.value("T", 0) == {source_origin("R", "b")}

    def test_null_condition_keeps_only_the_null_origin(self):
        source = schema("s", ("R", ("a", "b?"), "a"))
        x, y = V("x"), V("y")
        rule = Rule(
            RelationalAtom("T", (x, y)),
            (RelationalAtom("R", (x, y)),),
            null_vars=(y,),
        )
        program = DatalogProgram(rules=[rule], source_schema=source)
        result = solve(program, ProvenanceAnalysis(program))
        assert result.value("T", 1) == {NULL_ORIGIN}

    def test_format_origin(self):
        assert format_origin(source_origin("R", "a")) == "R.a"
        assert format_origin(skolem_origin("f")) == "f(...)"
        assert format_origin(("extern", "X")) == "extern:X"
        assert format_origin(NULL_ORIGIN) == "null"
        assert format_origin(CONST_ORIGIN) == "const"


# -- key origin ------------------------------------------------------------


class TestKeyOrigin:
    def test_seed_grades(self):
        source = schema(
            "s",
            ("P", ("p", "name"), "p"),
            ("O", ("car", "person", "note?"), "car"),
            fks=[("O", "person", "P")],
        )
        program = DatalogProgram(rules=[], source_schema=source)
        analysis = KeyOriginAnalysis(program)
        assert analysis.seed("P", 0) == SKEY  # the key itself
        assert analysis.seed("P", 1) == DET  # determined by P's key
        assert analysis.seed("O", 1) == SKEY  # mandatory FK to a simple key
        assert analysis.seed("Mystery", 0) == OPEN

    def test_nullable_fk_is_not_key_grade(self):
        source = schema(
            "s",
            ("P", ("p",), "p"),
            ("O", ("car", "person?"), "car"),
            fks=[("O", "person", "P")],
        )
        program = DatalogProgram(rules=[], source_schema=source)
        assert KeyOriginAnalysis(program).seed("O", 1) == DET

    def test_skolem_of_determined_arguments_is_key_grade(self):
        source = schema("s", ("R", ("a", "b"), "a"))
        x, y, z = V("x"), V("y"), V("z")
        rule = Rule(
            RelationalAtom(
                "T", (SkolemTerm("f", (x, y)), SkolemTerm("g", (z,)))
            ),
            (RelationalAtom("R", (x, y)), RelationalAtom("Q", (z,))),
        )
        program = DatalogProgram(rules=[rule], source_schema=source)
        result = solve(program, KeyOriginAnalysis(program))
        assert result.value("T", 0) == SKEY  # f of determined values
        assert result.value("T", 1) == OPEN  # g of an opaque-bound variable


class TestFunctionality:
    def _program(self, rules, source, target):
        return DatalogProgram(
            rules=rules, source_schema=source, target_schema=target
        )

    def test_key_determines_row_is_confirmed(self):
        source = schema("s", ("R", ("a", "b"), "a"))
        target = schema("t", ("T", ("a", "b"), "a"))
        x, y = V("x"), V("y")
        rule = Rule(
            RelationalAtom("T", (x, y)), (RelationalAtom("R", (x, y)),)
        )
        records = functionality_records(self._program([rule], source, target))
        assert len(records) == 1
        assert records[0].confirmed
        assert records[0].relation == "T"
        assert records[0].undetermined == ()

    def test_unconnected_join_is_not_confirmed(self):
        source = schema("s", ("R", ("a",), "a"), ("Q", ("b",), "b"))
        target = schema("t", ("T", ("a", "c"), "a"))
        x, y = V("x"), V("y")
        # T's key is x (from R); y ranges over all of Q — the rule is a
        # cartesian product, so T.c is NOT a function of T.a.
        rule = Rule(
            RelationalAtom("T", (x, y)),
            (RelationalAtom("R", (x,)), RelationalAtom("Q", (y,))),
        )
        records = functionality_records(self._program([rule], source, target))
        assert len(records) == 1
        assert not records[0].confirmed
        assert records[0].undetermined == ("c",)

    def test_skolem_key_term_determines_its_arguments(self):
        source = schema("s", ("R", ("a", "b"), "a"))
        target = schema("t", ("T", ("k", "b"), "k"))
        x, y = V("x"), V("y")
        # Key term f(x): Skolem injectivity determines x, and R's key -> row
        # FD then determines y.
        rule = Rule(
            RelationalAtom("T", (SkolemTerm("f", (x,)), y)),
            (RelationalAtom("R", (x, y)),),
        )
        records = functionality_records(self._program([rule], source, target))
        assert records[0].confirmed

    def test_equalities_propagate_determination(self):
        source = schema("s", ("R", ("a",), "a"), ("Q", ("b", "c"), "b"))
        target = schema("t", ("T", ("a", "c"), "a"))
        x, y, z = V("x"), V("y"), V("z")
        # x = y links the two atoms: Q's key is determined via the equality.
        rule = Rule(
            RelationalAtom("T", (x, z)),
            (RelationalAtom("R", (x,)), RelationalAtom("Q", (y, z))),
            equalities=(Equality(x, y),),
        )
        records = functionality_records(self._program([rule], source, target))
        assert records[0].confirmed

    def test_intermediate_rules_are_skipped(self):
        target = schema("t", ("T", ("a",), "a"))
        x = V("x")
        program = DatalogProgram(
            rules=[
                Rule(RelationalAtom("Ttmp", (x,)), (RelationalAtom("S", (x,)),)),
                Rule(RelationalAtom("T", (x,)), (RelationalAtom("Ttmp", (x,)),)),
            ],
            target_schema=target,
            intermediates={"Ttmp": 1},
        )
        records = functionality_records(program)
        assert [record.relation for record in records] == ["T"]


# -- FLW diagnostics -------------------------------------------------------


class TestFLW001:
    def _problem_and_program(self):
        source = schema("s", ("R", ("a", "b?"), "a"))
        target = schema("t", ("T", ("a", "c?"), "a"))
        problem = MappingProblem(source, target, name="dead-corr")
        problem.add_correspondence("R.a", "T.a")
        corr = problem.add_correspondence(
            "R.b", "T.c", span=SourceSpan(12, file="p.txt")
        )
        x, y = V("x"), V("y")
        # The generated-rule shape for a null-coverage column: the only rule
        # feeding T.c fires under y = null, so only null ever arrives.
        rule = Rule(
            RelationalAtom("T", (x, y)),
            (RelationalAtom("R", (x, y)),),
            null_vars=(y,),
        )
        program = DatalogProgram(
            rules=[rule], source_schema=source, target_schema=target
        )
        return problem, program, corr

    def test_dead_correspondence_is_flagged_with_its_span(self):
        problem, program, corr = self._problem_and_program()
        found = analyze_flow(program, problem).diagnostics
        flw001 = [item for item in found if item.code == "FLW001"]
        assert len(flw001) == 1
        assert "T.c" in flw001[0].message
        assert "only null" in flw001[0].message
        assert flw001[0].span is corr.span  # satellite: spans are threaded

    def test_without_problem_no_flw001(self):
        _, program, _ = self._problem_and_program()
        found = analyze_flow(program).diagnostics  # no correspondence targets known
        assert not [item for item in found if item.code == "FLW001"]

    def test_live_correspondence_is_not_flagged(self):
        source = schema("s", ("R", ("a", "b?"), "a"))
        target = schema("t", ("T", ("a", "c?"), "a"))
        problem = MappingProblem(source, target, name="live-corr")
        problem.add_correspondence("R.a", "T.a")
        problem.add_correspondence("R.b", "T.c")
        x, y = V("x"), V("y")
        rule = Rule(RelationalAtom("T", (x, y)), (RelationalAtom("R", (x, y)),))
        program = DatalogProgram(
            rules=[rule], source_schema=source, target_schema=target
        )
        assert not [
            item
            for item in analyze_flow(program, problem).diagnostics
            if item.code == "FLW001"
        ]


class TestFLW002:
    def test_skolem_only_mandatory_column_is_flagged(self):
        source = schema("s", ("R", ("a",), "a"))
        target = schema("t", ("T", ("a", "b"), "a"))
        x = V("x")
        rule = Rule(
            RelationalAtom("T", (x, SkolemTerm("f_b", (x,)))),
            (RelationalAtom("R", (x,)),),
        )
        program = DatalogProgram(
            rules=[rule], source_schema=source, target_schema=target
        )
        found = analyze_flow(program).diagnostics
        flw002 = [item for item in found if item.code == "FLW002"]
        assert len(flw002) == 1
        assert "T.b" in flw002[0].message
        assert "f_b" in flw002[0].message

    def test_key_positions_are_exempt(self):
        # Skolem-valued keys are the paper's bread and butter (§5.1): a
        # surrogate key is supposed to be invented.
        source = schema("s", ("R", ("a",), "a"))
        target = schema("t", ("T", ("k", "a"), "k"))
        x = V("x")
        rule = Rule(
            RelationalAtom("T", (SkolemTerm("f", (x,)), x)),
            (RelationalAtom("R", (x,)),),
        )
        program = DatalogProgram(
            rules=[rule], source_schema=source, target_schema=target
        )
        assert not analyze_flow(program).diagnostics

    def test_mixed_origins_are_not_flagged(self):
        source = schema("s", ("R", ("a", "b"), "a"))
        target = schema("t", ("T", ("a", "b"), "a"))
        x, y = V("x"), V("y")
        rules = [
            Rule(RelationalAtom("T", (x, y)), (RelationalAtom("R", (x, y)),)),
            Rule(
                RelationalAtom("T", (x, SkolemTerm("f", (x,)))),
                (RelationalAtom("R", (x, y)),),
            ),
        ]
        program = DatalogProgram(
            rules=rules, source_schema=source, target_schema=target
        )
        assert not [
            item for item in analyze_flow(program).diagnostics if item.code == "FLW002"
        ]


class TestFLW003:
    def test_unconfirmed_functionality_is_flagged(self):
        source = schema("s", ("R", ("a",), "a"), ("Q", ("b",), "b"))
        target = schema("t", ("T", ("a", "c"), "a"))
        x, y = V("x"), V("y")
        rule = Rule(
            RelationalAtom("T", (x, y)),
            (RelationalAtom("R", (x,)), RelationalAtom("Q", (y,))),
        )
        program = DatalogProgram(
            rules=[rule], source_schema=source, target_schema=target
        )
        found = analyze_flow(program).diagnostics
        flw003 = [item for item in found if item.code == "FLW003"]
        assert len(flw003) == 1
        assert "T.{c}" in flw003[0].message
        assert "not statically confirmed" in flw003[0].message

    def test_all_bundled_scenarios_are_confirmed(self):
        # Algorithm 4's dynamic check passes on every bundled scenario; the
        # static closure must agree (it is sound, and here also complete).
        from repro.scenarios import bundled_problems

        for name, problem in bundled_problems().items():
            program = MappingSystem(problem).transformation
            for record in functionality_records(program):
                assert record.confirmed, (name, record)


# -- end to end over the pipeline ------------------------------------------


class TestPipelineIntegration:
    def test_flow_report_cached_on_the_system(self):
        from repro.scenarios import bundled_problems

        system = MappingSystem(bundled_problems()["figure-1"])
        report = system.flow_report()
        assert report is system.flow_report()  # cached
        assert set(report.states()) == {"nullability", "provenance", "keyorigin"}

    def test_compile_flow_appends_flw_diagnostics(self):
        from repro.scenarios import bundled_problems

        problem = bundled_problems()["appendix-A.3"]
        system = MappingSystem(problem)
        system.compile()  # FLW findings are warnings: the compile passes
        codes = {item.code for item in system.flow_report().diagnostics}
        assert "FLW002" in codes

    def test_dsl_spans_reach_flw_findings(self):
        text = (
            "source schema S:\n"
            "  relation R (a key)\n"
            "target schema T:\n"
            "  relation P (a key, b)\n"
            "correspondences:\n"
            "  R.a -> P.a\n"
        )
        problem = parse_problem(text, file="uncovered.txt")
        program = MappingSystem(problem).transformation
        found = analyze_flow(program, problem).diagnostics
        flw002 = [item for item in found if item.code == "FLW002"]
        assert len(flw002) == 1
        span = flw002[0].span
        assert span is not None
        assert span.file == "uncovered.txt"
        assert span.line == 4  # the declaration line of P (and of P.b)
        assert "uncovered.txt:4" in flw002[0].render()

    def test_figure_1_flow_states(self):
        from repro.scenarios import bundled_problems

        problem = bundled_problems()["figure-1"]
        report = MappingSystem(problem).flow_report()
        nullability = report.states()["nullability"]
        # C2.person is the nullable FK column Figure 1 is famous for.
        assert nullability["C2"] == [NO, NO, MAYBE]
        assert all(value != BOTTOM for row in nullability.values() for value in row)
        assert not report.diagnostics
        assert all(record.confirmed for record in report.functionality)
