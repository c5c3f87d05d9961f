"""The constraint certifier: verdicts, witnesses, counterexamples, CLI.

The central claims under test:

* every key / foreign-key / NOT NULL constraint of every bundled scenario is
  **PROVED** with a recorded witness (the paper's validity guarantee as a
  machine-checked theorem);
* deliberately broken mappings are **REFUTED**, and every refutation carries
  a minimal counterexample source instance that really violates the
  constraint — on both evaluation engines (the refutation-soundness
  contract; `tests/test_certify_soundness.py` fuzzes the PROVED side);
* the basic (Clio-style) algorithm on Figure 1 is refuted exactly where the
  paper says it misbehaves: the key of ``C2``, and nowhere else;
* termination is a precondition — an unbounded program downgrades every
  other verdict to UNKNOWN instead of claiming proofs the canonical-instance
  arguments no longer support.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.certify import (
    PROVED,
    REFUTED,
    UNKNOWN,
    certify_program,
    certify_termination,
)
from repro.analysis.diagnostics import ERROR, WARNING
from repro.cli import main
from repro.core.pipeline import MappingSystem
from repro.datalog.engine import evaluate
from repro.datalog.exec import evaluate_batch
from repro.datalog.program import DatalogProgram, Rule
from repro.logic.atoms import RelationalAtom
from repro.logic.terms import SkolemTerm, Variable
from repro.model.builder import SchemaBuilder
from repro.model.validation import validate_instance
from repro.scenarios import bundled_problems
from repro.scenarios.generator import generate_unbounded_program


def _rule(head, body, **kwargs):
    return Rule(head=head, body=tuple(body), **kwargs)


# --- broken fixtures -------------------------------------------------------


def broken_notnull_program() -> DatalogProgram:
    """Copies a nullable source attribute into a mandatory target one."""
    source = (
        SchemaBuilder("s").relation("S", "k", "a?", key="k").build(validate=False)
    )
    target = (
        SchemaBuilder("t").relation("T", "k", "a", key="k").build(validate=False)
    )
    k, a = Variable("k"), Variable("a")
    rule = _rule(
        RelationalAtom("T", (k, a)), [RelationalAtom("S", (k, a))]
    )
    return DatalogProgram(
        rules=[rule], source_schema=source, target_schema=target
    )


def broken_key_program() -> DatalogProgram:
    """Two unguarded rules can emit key-equal, value-different rows."""
    source = (
        SchemaBuilder("s")
        .relation("S1", "k", "a", key="k")
        .relation("S2", "k", "b", key="k")
        .build(validate=False)
    )
    target = (
        SchemaBuilder("t").relation("T", "k", "v", key="k").build(validate=False)
    )
    k1, a = Variable("k"), Variable("a")
    k2, b = Variable("k"), Variable("b")
    rules = [
        _rule(RelationalAtom("T", (k1, a)), [RelationalAtom("S1", (k1, a))]),
        _rule(RelationalAtom("T", (k2, b)), [RelationalAtom("S2", (k2, b))]),
    ]
    return DatalogProgram(
        rules=rules, source_schema=source, target_schema=target
    )


def broken_fk_program() -> DatalogProgram:
    """The FK column of ``T`` is fed independently of ``U``'s key."""
    source = (
        SchemaBuilder("s")
        .relation("S", "k", "r", key="k")
        .relation("W", "u", key="u")
        .build(validate=False)
    )
    target = (
        SchemaBuilder("t")
        .relation("T", "k", "r", key="k")
        .relation("U", "u", key="u")
        .foreign_key("T", "r", "U")
        .build(validate=False)
    )
    k, r, u = Variable("k"), Variable("r"), Variable("u")
    rules = [
        _rule(RelationalAtom("T", (k, r)), [RelationalAtom("S", (k, r))]),
        _rule(RelationalAtom("U", (u,)), [RelationalAtom("W", (u,))]),
    ]
    return DatalogProgram(
        rules=rules, source_schema=source, target_schema=target
    )


def unbounded_program() -> DatalogProgram:
    """``T(f(x)) <- T(x)``: a special cycle, no chase-depth bound."""
    target = SchemaBuilder("t").relation("T", "x", key="x").build(validate=False)
    x = Variable("x")
    rule = _rule(
        RelationalAtom("T", (SkolemTerm("f", (x,)),)),
        [RelationalAtom("T", (x,))],
    )
    return DatalogProgram(rules=[rule], target_schema=target)


BROKEN_FIXTURES = {
    "not-null": broken_notnull_program,
    "key": broken_key_program,
    "foreign-key": broken_fk_program,
}


# --- termination -----------------------------------------------------------


class TestTermination:
    def test_bundled_programs_bounded(self):
        for name, problem in bundled_problems().items():
            program = MappingSystem(problem).compile()
            certificate = certify_termination(program)
            assert certificate.bounded, name
            assert certificate.depth_bound is not None
            assert 0 <= certificate.depth_bound <= 1, name
            assert "weakly acyclic" in certificate.witness()

    def test_recursive_skolem_unbounded(self):
        certificate = certify_termination(unbounded_program())
        assert not certificate.bounded
        assert certificate.cycle
        assert "T.0" in certificate.witness()

    def test_unbounded_downgrades_everything(self):
        report = certify_program(unbounded_program(), subject="unbounded")
        assert not report.ok
        termination = report.of_kind("termination")
        assert [v.verdict for v in termination] == [UNKNOWN]
        others = [v for v in report.verdicts if v.kind != "termination"]
        assert others, "constraints of the target schema must still appear"
        assert all(v.verdict == UNKNOWN for v in others)
        assert all("termination precondition" in v.reason for v in others)


# --- the central theorem ---------------------------------------------------


class TestBundledScenariosProved:
    def test_every_constraint_proved_with_witness(self):
        total = 0
        for name, problem in bundled_problems().items():
            report = MappingSystem(problem).certify()
            assert report.ok, (name, report.summary())
            for verdict in report.verdicts:
                assert verdict.verdict == PROVED, (name, verdict.constraint)
                assert verdict.witness, (name, verdict.constraint)
            total += len(report.verdicts)
        # Per-constraint granularity: every relation key, every FK, every
        # mandatory attribute, plus one termination verdict per scenario.
        expected = 0
        for problem in bundled_problems().values():
            schema = problem.target_schema
            expected += 1  # termination
            expected += sum(1 for _ in schema)
            expected += len(schema.foreign_keys)
            expected += sum(
                1
                for relation in schema
                for attribute in relation.attributes
                if not attribute.nullable
            )
        assert total == expected

    def test_proved_verdicts_produce_no_diagnostics(self):
        report = MappingSystem(bundled_problems()["figure-1"]).certify()
        assert report.diagnostics == []


class TestGeneratedScenarios:
    """Seeded weakly acyclic scenarios certify with no refutations."""

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_scenario_certifies_clean(self, seed):
        from repro.scenarios.generator import generate_scenario

        scenario = generate_scenario(seed)
        report = MappingSystem(scenario.problem).certify()
        assert not report.refuted, report.render()
        termination = report.of_kind("termination")
        assert [v.verdict for v in termination] == [PROVED]


# --- refutations -----------------------------------------------------------


class TestRefutations:
    @pytest.mark.parametrize("kind", sorted(BROKEN_FIXTURES))
    def test_broken_fixture_refuted(self, kind):
        program = BROKEN_FIXTURES[kind]()
        report = certify_program(program, subject=f"broken-{kind}")
        refuted = [v for v in report.of_kind(kind) if v.verdict == REFUTED]
        assert refuted, report.render()
        for verdict in refuted:
            assert verdict.counterexample is not None
            assert verdict.reason

    @pytest.mark.parametrize("kind", sorted(BROKEN_FIXTURES))
    def test_counterexample_is_valid_and_reproduces(self, kind):
        """The refutation-soundness contract, checked end to end."""
        program = BROKEN_FIXTURES[kind]()
        report = certify_program(program)
        for verdict in report.refuted:
            source = verdict.counterexample
            # The counterexample is a *valid* source instance ...
            assert validate_instance(source).ok
            # ... whose transformation violates the constraint on both
            # engines.
            for run in (evaluate, evaluate_batch):
                target = run(program, source).target
                violations = validate_instance(target)
                assert not violations.ok, (kind, run.__name__)
                assert self._trips(verdict, violations), (kind, run.__name__)

    @staticmethod
    def _trips(verdict, violations) -> bool:
        if verdict.kind == "key":
            return any(
                item.relation == verdict.relation
                for item in violations.key_violations
            )
        if verdict.kind == "not-null":
            return any(
                item.relation == verdict.relation
                for item in violations.null_violations
            )
        return any(
            item.relation == verdict.relation
            for item in violations.foreign_key_violations
        )

    @pytest.mark.parametrize("kind", sorted(BROKEN_FIXTURES))
    def test_counterexample_is_minimal(self, kind):
        """Dropping any single row must kill the reproduction."""
        program = BROKEN_FIXTURES[kind]()
        report = certify_program(program)
        for verdict in report.refuted:
            source = verdict.counterexample
            for relation in source.schema:
                for row in source.relation(relation.name).rows:
                    smaller = self._without(source, relation.name, row)
                    if not validate_instance(smaller).ok:
                        continue  # not a candidate counterexample at all
                    target = evaluate(program, smaller).target
                    assert not self._trips(
                        verdict, validate_instance(target)
                    ), (kind, relation.name, row)

    @staticmethod
    def _without(instance, relation_name, row):
        from repro.model.instance import Instance

        smaller = Instance(instance.schema)
        for relation in instance.schema:
            for other in instance.relation(relation.name).rows:
                if relation.name == relation_name and other == row:
                    continue
                smaller.add(relation.name, other)
        return smaller


class TestBasicAlgorithmFigure1:
    """The paper's motivating failure, statically rediscovered."""

    @pytest.fixture(scope="class")
    def report(self):
        problem = bundled_problems()["figure-1"]
        return MappingSystem(problem, algorithm="basic").certify()

    def test_key_of_c2_refuted(self, report):
        refuted = report.refuted
        assert [(v.kind, v.relation) for v in refuted] == [("key", "C2")]
        assert refuted[0].counterexample is not None

    def test_everything_else_proved(self, report):
        others = [v for v in report.verdicts if v.verdict != REFUTED]
        assert all(v.verdict == PROVED for v in others)
        assert {v.kind for v in others} >= {
            "termination",
            "foreign-key",
            "not-null",
        }


# --- report surface --------------------------------------------------------


class TestReportSurface:
    def test_render_and_to_dict(self):
        report = certify_program(broken_key_program(), subject="broken-key")
        text = report.render()
        assert "REFUTED" in text and "counterexample" in text
        data = report.to_dict()
        assert data["subject"] == "broken-key"
        assert data["counts"][REFUTED] >= 1
        verdicts = {v["constraint"]: v for v in data["verdicts"]}
        assert any(v["verdict"] == REFUTED for v in verdicts.values())
        json.dumps(data)  # machine-readable end to end

    def test_diagnostic_severity_mapping(self):
        refuted_report = certify_program(broken_key_program())
        items = refuted_report.diagnostics
        assert any(
            item.code == "CER001" and item.severity == ERROR for item in items
        )
        unknown_report = certify_program(unbounded_program())
        severities = {
            item.code: item.severity
            for item in unknown_report.diagnostics
        }
        # UNKNOWN downgrades to warning; the registry default stays error.
        assert severities["TRM001"] == WARNING
        assert all(sev == WARNING for sev in severities.values())

    def test_notnull_verdicts_carry_spans(self):
        """DSL-declared target schemas thread spans into the verdicts."""
        from pathlib import Path

        from repro.dsl.parser import parse_problem

        text = Path("examples/figure1.problem.txt").read_text()
        problem = parse_problem(text)
        report = MappingSystem(problem).certify()
        spanned = [v for v in report.of_kind("not-null") if v.span is not None]
        assert spanned, "target schema spans must reach the verdicts"


class TestPipelineSurface:
    def test_certify_is_cached(self):
        system = MappingSystem(bundled_problems()["figure-1"])
        assert system.certify() is system.certify()

    def test_certify_invalidated_on_change(self):
        system = MappingSystem(bundled_problems()["figure-1"])
        first = system.certify()
        # A freshly built problem carries new correspondence objects, so the
        # fingerprint check must drop the cached report.
        system.problem = bundled_problems()["figure-1"]
        assert system.certify() is not first

    def test_schema_swap_recomputes(self):
        # The correspondences stay the same objects; only the target schema
        # changes (C2.person becomes NOT NULL), which adds one verdict.
        problem = bundled_problems()["figure-1"]
        system = MappingSystem(problem)
        stale = system.transformation
        assert len(system.certify().verdicts) == 9
        problem.target_schema = (
            SchemaBuilder("CARS2")
            .relation("P2", "person", "name", "email", key="person")
            .relation("C2", "car", "model", "person", key="car")
            .foreign_key("C2", "person", "P2")
            .build()
        )
        assert system.transformation is not stale
        assert len(system.certify().verdicts) == 10


# --- CLI -------------------------------------------------------------------


class TestCli:
    def test_certify_scenario_exit_zero(self, capsys):
        assert main(["certify", "--scenario", "figure-1"]) == 0
        out = capsys.readouterr().out
        assert "PROVED" in out and "witness" in out

    def test_certify_basic_refuted_exit_one(self, capsys):
        code = main(
            ["certify", "--scenario", "figure-1", "--algorithm", "basic"]
        )
        assert code == 1
        assert "REFUTED" in capsys.readouterr().out

    def test_fail_on_never(self):
        code = main(
            [
                "certify",
                "--scenario",
                "figure-1",
                "--algorithm",
                "basic",
                "--fail-on",
                "never",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "fail_on, code", [("refuted", 1), ("unknown", 1), ("never", 0)]
    )
    def test_fail_on_with_a_refuted_constraint(self, fail_on, code, capsys):
        argv = ["certify", "--scenario", "figure-1", "--algorithm", "basic",
                "--fail-on", fail_on]
        assert main(argv) == code
        out = capsys.readouterr().out
        assert out.endswith("1 subject(s): 8 proved, 1 refuted, 0 unknown\n")

    @pytest.mark.parametrize(
        "fail_on, code", [("refuted", 0), ("unknown", 1), ("never", 0)]
    )
    def test_fail_on_with_unknown_constraints_only(
        self, fail_on, code, monkeypatch, capsys
    ):
        # TRM001 downgrades every verdict of the recursive-Skolem program to
        # UNKNOWN: warnings only, nothing REFUTED.
        report = certify_program(generate_unbounded_program(), subject="u")
        monkeypatch.setattr(MappingSystem, "certify", lambda system: report)
        argv = ["certify", "--scenario", "figure-1", "--fail-on", fail_on]
        assert main(argv) == code
        out = capsys.readouterr().out
        assert out.endswith("1 subject(s): 0 proved, 0 refuted, 3 unknown\n")

    def test_json_output(self, capsys):
        assert main(["certify", "--scenario", "figure-1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["subject"] == "figure-1"
        assert all(v["verdict"] == PROVED for v in data["verdicts"])

    def test_sarif_out(self, tmp_path, capsys):
        out = tmp_path / "certify.sarif"
        code = main(
            [
                "certify",
                "--scenario",
                "figure-1",
                "--algorithm",
                "basic",
                "--sarif-out",
                str(out),
            ]
        )
        assert code == 1
        capsys.readouterr()
        sarif = json.loads(out.read_text())
        rule_ids = {
            result["ruleId"]
            for run in sarif["runs"]
            for result in run["results"]
        }
        assert "CER001" in rule_ids

    def test_lint_certify_folds_findings(self, capsys):
        code = main(
            [
                "lint",
                "--scenario",
                "figure-1",
                "--certify",
                "--algorithm",
                "basic",
            ]
        )
        assert code == 1
        assert "CER001" in capsys.readouterr().out
