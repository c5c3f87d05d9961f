"""The differential optimizer verifier, always-on over every bundled scenario."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.analysis.semantic.verifier import (
    VerificationReport,
    canonical_instances,
)
from repro.core.pipeline import MappingSystem
from repro.core.schema_mapping import BASIC
from repro.datalog.program import DatalogProgram, Rule
from repro.errors import ReproError
from repro.logic.atoms import RelationalAtom
from repro.logic.terms import Variable
from repro.model.builder import SchemaBuilder
from repro.scenarios import bundled_problems, cars

SCENARIOS = sorted(bundled_problems())


@pytest.mark.parametrize("name", SCENARIOS)
def test_every_bundled_scenario_certifies(name):
    system = MappingSystem(bundled_problems()[name])
    report = system.verify()
    assert report.checks, name  # something was actually certified
    assert report.ok, [c.detail for c in report.failures()]
    assert report.diagnostics == []


@pytest.mark.parametrize("name", ["figure-1", "figure-10", "figure-14"])
def test_basic_algorithm_certifies(name):
    system = MappingSystem(bundled_problems()[name], algorithm=BASIC)
    report = system.verify()
    assert report.ok, [c.detail for c in report.failures()]


class TestPipelineFlag:
    def test_verify_optimizations_passes_and_caches(self):
        system = MappingSystem(cars.figure1_problem(), verify_optimizations=True)
        system.query_result()  # runs the verifier, raising on failure
        report = system.verify()
        assert report.ok
        assert system.verify() is report  # cached

    def test_verify_without_flag_is_lazy(self, monkeypatch):
        import repro.analysis.semantic.verifier as verifier_module

        calls = []
        real = verifier_module.verify_result

        def spy(*args, **kwargs):
            calls.append(kwargs.get("problem"))
            return real(*args, **kwargs)

        monkeypatch.setattr(verifier_module, "verify_result", spy)
        system = MappingSystem(cars.figure1_problem())
        system.query_result()
        assert calls == []
        report = system.verify()
        assert calls == ["figure-1"]
        assert report.ok and report.problem == "figure-1"

    def test_cache_invalidated_on_problem_mutation(self):
        problem = cars.figure1_problem()
        system = MappingSystem(problem)
        first = system.verify()
        problem.add_correspondence("C3.car", "C2.car", "extra")
        second = system.verify()
        assert second is not first


class TestCanonicalInstances:
    def test_per_rule_and_union_instances(self):
        system = MappingSystem(cars.figure1_problem())
        program = system.query_result().program
        labeled = canonical_instances(program)
        labels = [label for label, _ in labeled]
        assert labels[-1] == "union"
        assert len(labeled) == len(program.rules) + 1
        for _, instance in labeled:
            # Canonical instances only populate source relations.
            populated = {name for name, relation in instance.relations.items()
                         if relation.rows}
            assert populated <= set(program.source_schema.relation_names())

    def test_null_conditioned_variable_freezes_to_null(self):
        from repro.model.values import NULL

        # Figure 14 maps CARS2 back to CARS3; its C3 rule requires p = null.
        system = MappingSystem(cars.figure14_problem())
        program = system.query_result().program
        nulled = [
            (i, rule) for i, rule in enumerate(program.rules) if rule.null_vars
        ]
        assert nulled
        index, rule = nulled[0]
        labeled = dict(canonical_instances(program))
        instance = labeled[f"rule[{index}]:{rule.head_relation}"]
        assert any(
            NULL in row
            for relation in instance.relations.values()
            for row in relation.rows
        )


class TestFailureDetection:
    def test_broken_optimizer_is_caught(self, monkeypatch):
        """Dropping a non-redundant rule must produce SEM003 failures."""
        import repro.core.query_generation as qgen_module

        def lobotomized(program):
            # "Optimize" by discarding the C2 rules — semantics change.
            kept = [r for r in program.rules if r.head_relation != "C2"]
            return DatalogProgram(
                rules=kept,
                source_schema=program.source_schema,
                target_schema=program.target_schema,
                intermediates=dict(program.intermediates),
            )

        monkeypatch.setattr(
            qgen_module, "remove_subsumed_rules", lobotomized
        )
        system = MappingSystem(cars.figure1_problem())
        report = system.verify()
        assert not report.ok
        assert any(d.code == "SEM003" for d in report.diagnostics)

    def test_pipeline_flag_raises_on_failure(self, monkeypatch):
        import repro.core.query_generation as qgen_module

        def lobotomized(program):
            kept = [r for r in program.rules if r.head_relation != "C2"]
            return DatalogProgram(
                rules=kept,
                source_schema=program.source_schema,
                target_schema=program.target_schema,
                intermediates=dict(program.intermediates),
            )

        monkeypatch.setattr(
            qgen_module, "remove_subsumed_rules", lobotomized
        )
        system = MappingSystem(cars.figure1_problem(), verify_optimizations=True)
        with pytest.raises(ReproError) as excinfo:
            system.query_result()
        assert "SEM003" in str(excinfo.value)
        assert excinfo.value.diagnostic is not None
        # The unverified program is never cached: every access raises.
        with pytest.raises(ReproError, match="SEM003"):
            system.query_result()


def _break_optimizer(monkeypatch, transform):
    """Replace stage 2's optimizer by ``transform`` of its kept rules."""
    import repro.core.query_generation as qgen_module

    real = qgen_module.remove_subsumed_rules

    def broken(program):
        return DatalogProgram(
            rules=transform(real(program).rules),
            source_schema=program.source_schema,
            target_schema=program.target_schema,
            intermediates=dict(program.intermediates),
        )

    monkeypatch.setattr(qgen_module, "remove_subsumed_rules", broken)


def _differential_failures(name):
    report = MappingSystem(bundled_problems()[name]).verify()
    return {
        check.subject: check.detail
        for check in report.failures()
        if check.name == "optimizer:differential"
    }


class TestDifferentialDetail:
    """A SEM003 differential failure names a removed rule and its row."""

    def test_shortcut_names_the_removed_rule_and_row(self, monkeypatch):
        # figure-7 reads only source relations: the removed rules run alone.
        _break_optimizer(
            monkeypatch, lambda rules: [r for r in rules if r.head_relation != "O3"]
        )
        failures = _differential_failures("figure-7")
        assert sorted(failures) == ["rule[1]:O3", "rule[2]:C3", "rule[3]:P3", "union"]
        assert failures["rule[2]:C3"] == (
            "programs disagree on canonical instance rule[2]:C3: removed "
            "rule[1] O3(c,p) <- C2a(c,m,p), P2a(p,n,e) derives "
            "O3(r2.c#0, r2.p#2), which the optimized target lacks"
        )

    def test_full_evaluation_names_the_removed_rule_and_row(self, monkeypatch):
        # figure-10 reads the intermediate OCtmp: both programs run in full.
        _break_optimizer(
            monkeypatch,
            lambda rules: [
                r for r in rules
                if not (r.head_relation == "C2a" and len(r.body) == 3)
            ],
        )
        failures = _differential_failures("figure-10")
        assert "union" in failures
        assert failures["rule[4]:P2a"] == (
            "programs disagree on canonical instance rule[4]:P2a: removed "
            "rule[3] C2a(c,m,p) <- O3(c,p), C3(c,m), P3(p,n,e) derives "
            "C2a(r4.c#0, r4.m#2, r4.p#1), which the optimized target lacks"
        )

    def test_both_paths_write_the_same_text(self, monkeypatch):
        import repro.analysis.semantic.verifier as verifier_module

        _break_optimizer(
            monkeypatch, lambda rules: [r for r in rules if r.head_relation != "O3"]
        )
        shortcut = _differential_failures("figure-7")
        monkeypatch.setattr(
            verifier_module, "_reads_source_only", lambda *programs: False
        )
        assert _differential_failures("figure-7") == shortcut

    def test_a_row_only_the_optimized_target_holds(self, monkeypatch):
        # An "optimizer" that adds a rule: no rule is removed, so the
        # detail names the optimized target's extra row.
        c, m, p = Variable("c"), Variable("m"), Variable("p")
        extra = Rule(
            head=RelationalAtom("O3", (c, c)),
            body=(RelationalAtom("C2a", (c, m, p)),),
        )
        _break_optimizer(monkeypatch, lambda rules: rules + [extra])
        failures = _differential_failures("figure-7")
        assert failures["rule[1]:O3"] == (
            "programs disagree on canonical instance rule[1]:O3: "
            "O3(r1.c#0, r1.c#0) is in the optimized target only"
        )


def _drop_disabling_negations(monkeypatch):
    """Make resolution forget the negations that disable conflicting rules."""
    import repro.core.query_generation as qgen_module

    real = qgen_module.resolve_key_conflicts

    def no_negations(*args, **kwargs):
        final, resolution = real(*args, **kwargs)
        stripped = [m.with_premise(replace(m.premise, negated=())) for m in final]
        return stripped, resolution

    monkeypatch.setattr(qgen_module, "resolve_key_conflicts", no_negations)


class TestOneRunPerInstance:
    """Each canonical instance is evaluated once per program at most.

    Programs whose rules read only source relations run the optimized
    program alone (plus the removed rules); the others run both programs.
    The key checks reuse the optimized program's targets.
    """

    RESOLVED = ["example-6-6", "example-6-7", "figure-1", "figure-12"]

    def test_evaluate_runs_twice_per_instance(self, monkeypatch):
        import repro.analysis.semantic.verifier as verifier_module

        runs = []
        real = verifier_module.evaluate

        def counting(program, instance, *args, **kwargs):
            runs.append(id(instance))
            return real(program, instance, *args, **kwargs)

        monkeypatch.setattr(verifier_module, "evaluate", counting)
        problem = cars.figure1_problem()
        report = MappingSystem(problem).verify()
        unoptimized = MappingSystem(problem, optimize=False).query_result().program
        instances = canonical_instances(unoptimized)
        assert any(c.name == "resolution:keys" for c in report.checks)
        assert len(runs) == 2 * len(instances)
        assert sorted(Counter(runs).values()) == [2] * len(instances)

    def test_source_only_programs_evaluate_once_per_instance(self, monkeypatch):
        import repro.analysis.semantic.verifier as verifier_module

        runs = []
        real = verifier_module.evaluate

        def counting(program, instance, *args, **kwargs):
            runs.append((id(program), id(instance)))
            return real(program, instance, *args, **kwargs)

        monkeypatch.setattr(verifier_module, "evaluate", counting)
        system = MappingSystem(bundled_problems()["figure-7"])
        result = system.query_result()
        assert len(result.program.rules) < len(result.unoptimized.rules)
        report = system.verify()
        assert report.ok
        instances = canonical_instances(result.unoptimized)
        assert len(runs) == len(set(runs)) == len(instances)
        assert {program for program, _ in runs} == {id(result.program)}

    def test_missing_disabling_negations_fail_the_key_check(self, monkeypatch):
        """A resolution that adds no negations leaves a key conflict: SEM004."""
        _drop_disabling_negations(monkeypatch)
        report = MappingSystem(cars.figure1_problem()).verify()
        failures = report.failures()
        assert failures
        assert {c.name for c in failures} == {"resolution:keys"}
        assert all("violates target keys" in c.detail for c in failures)
        assert {d.code for d in report.diagnostics} == {"SEM004"}

    @pytest.mark.parametrize("negations", ["kept", "dropped"])
    @pytest.mark.parametrize("name", RESOLVED)
    def test_key_checks_match_direct_evaluation(self, name, negations, monkeypatch):
        from repro.datalog.engine import evaluate
        from repro.datalog.optimize import remove_subsumed_rules
        from repro.model.validation import validate_instance

        if negations == "dropped":
            _drop_disabling_negations(monkeypatch)
        problem = bundled_problems()[name]
        report = MappingSystem(problem).verify()
        unoptimized = MappingSystem(problem, optimize=False).query_result().program
        optimized = remove_subsumed_rules(unoptimized)
        expected = [
            (label, validate_instance(evaluate(optimized, instance).target))
            for label, instance in canonical_instances(unoptimized)
        ]
        checks = [c for c in report.checks if c.name == "resolution:keys"]
        assert [(c.subject, c.ok) for c in checks] == [
            (label, not validation.key_violations) for label, validation in expected
        ]
        for check, (_, validation) in zip(checks, expected):
            assert all(str(v) in check.detail for v in validation.key_violations)
        if negations == "dropped":
            assert not all(check.ok for check in checks)
