"""The differential optimizer verifier, always-on over every bundled scenario."""

from collections import Counter
from dataclasses import replace

import pytest

import repro.analysis.semantic.verifier as verifier
from repro.analysis.semantic.containment import default_engine
from repro.analysis.semantic.verifier import (
    VerificationReport,
    canonical_instances,
    verify_result,
)
from repro.core.pipeline import MappingSystem
from repro.core.schema_mapping import BASIC
from repro.datalog.engine import evaluate
from repro.datalog.program import DatalogProgram, Rule
from repro.errors import ReproError
from repro.logic.atoms import Disequality, RelationalAtom
from repro.logic.terms import Constant, Variable
from repro.model.builder import SchemaBuilder
from repro.model.validation import validate_instance
from repro.model.values import NULL
from repro.scenarios import bundled_problems, cars
from repro.scenarios.generator import DEFAULT, generate_scenario
from repro.scenarios.synthetic import chain_problem, wide_problem

from .larger_shape import LARGER

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
        calls = []
        real = verifier.verify_result

        def spy(*args, **kwargs):
            calls.append(kwargs.get("problem"))
            return real(*args, **kwargs)

        monkeypatch.setattr(verifier, "verify_result", spy)
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
        _break_optimizer(
            monkeypatch, lambda rules: [r for r in rules if r.head_relation != "O3"]
        )
        shortcut = _differential_failures("figure-7")
        monkeypatch.setattr(
            verifier, "_reads_source_only", lambda *programs: False
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
    """Each canonical instance is evaluated once per program at most, and
    a class of them only once while its members pass.

    Programs whose rules read only source relations run the optimized
    program alone (plus the removed rules); the others run both programs.
    The key checks reuse the optimized program's targets.
    """

    RESOLVED = ["example-6-6", "example-6-7", "figure-1", "figure-12"]

    def test_evaluate_runs_twice_per_class(self, monkeypatch):
        runs = []
        real = verifier.evaluate

        def counting(program, instance, *args, **kwargs):
            runs.append(id(instance))
            return real(program, instance, *args, **kwargs)

        monkeypatch.setattr(verifier, "evaluate", counting)
        problem = cars.figure1_problem()
        report = MappingSystem(problem).verify()
        assert any(c.name == "resolution:keys" for c in report.checks)
        result = MappingSystem(problem).query_result()
        firsts = _class_firsts(result)
        assert len(firsts) < len(canonical_instances(result.unoptimized))
        assert len(runs) == 2 * len(firsts)
        assert sorted(Counter(runs).values()) == [2] * len(firsts)

    def test_source_only_programs_evaluate_once_per_class(self, monkeypatch):
        runs = []
        real = verifier.evaluate

        def counting(program, instance, *args, **kwargs):
            runs.append((id(program), id(instance)))
            return real(program, instance, *args, **kwargs)

        monkeypatch.setattr(verifier, "evaluate", counting)
        system = MappingSystem(bundled_problems()["figure-7"])
        result = system.query_result()
        assert len(result.program.rules) < len(result.unoptimized.rules)
        report = system.verify()
        assert report.ok
        firsts = _class_firsts(result)
        assert len(runs) == len(set(runs)) == len(firsts)
        assert {program for program, _ in runs} == {id(result.program)}

    def test_instance_classes_are_counted(self):
        from repro.obs import Tracer, use_tracer

        result = MappingSystem(chain_problem(4)).query_result()
        tracer = Tracer()
        with use_tracer(tracer):
            assert verify_result(result).ok
        classes = tracer.metrics.counter("verify.instance_classes").total()
        assert classes == len(_class_firsts(result)) == 16

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


def _class_firsts(result):
    """The label of each instance class's first member, in instance order."""
    unoptimized = result.unoptimized
    firsts = {}
    for label, _, key in verifier._classed_instances(
        unoptimized, verifier._constants(unoptimized, result.program)
    ):
        firsts.setdefault(label if key is None else key, label)
    return list(firsts.values())


def _per_instance_report(result, engine):
    """The verification as it ran before instance classes: every canonical
    instance is evaluated, and its key check reads its own target."""
    report = VerificationReport()
    unoptimized, optimized = result.unoptimized, result.program
    verifier._certify_optimizer(report, engine, unoptimized, optimized)
    removed = verifier._removed_rules(unoptimized, optimized)
    shortcut = verifier._reads_source_only(unoptimized, optimized)
    plans = {}
    targets = []
    for label, instance in canonical_instances(unoptimized):
        if shortcut:
            after = evaluate(optimized, instance, plans=plans).target
            disagreement = verifier._missing_row(
                removed, verifier._relations(instance), after, plans
            )
        else:
            before = evaluate(unoptimized, instance, plans=plans)
            after = evaluate(optimized, instance, plans=plans).target
            disagreement = (
                None if before.target == after
                else verifier._disagreement(
                    removed, instance, before, after, plans
                )
            )
        report._record(
            "optimizer:differential", label, disagreement is None,
            "optimized and unoptimized programs agree"
            if disagreement is None
            else f"programs disagree on canonical instance {label}: "
            + disagreement,
            code="SEM003",
        )
        targets.append((label, after))
    if result.resolution is not None:
        verifier._certify_resolution_rewrites(report, engine, result)
        for label, target in targets:
            violations = validate_instance(target).key_violations
            report._record(
                "resolution:keys", label, not violations,
                "no key violations on the canonical instance"
                if not violations
                else f"resolved program violates target keys on {label}: "
                + "; ".join(str(v) for v in violations),
                code="SEM004",
            )
    return report


def _assert_shared_report_matches(problem):
    result = MappingSystem(problem).query_result()
    engine = default_engine()
    shared = verify_result(result, engine=engine)
    reference = _per_instance_report(result, engine)
    assert shared.checks == reference.checks
    assert shared.diagnostics == reference.diagnostics
    return shared


SHARED_SUBJECTS = {
    **{f"chain-{n}": lambda n=n: chain_problem(n) for n in range(2, 9)},
    **{f"wide-{n}": lambda n=n: wide_problem(n) for n in range(2, 9)},
    **{
        f"default-{seed}": lambda seed=seed: generate_scenario(seed, DEFAULT).problem
        for seed in sorted({*range(0, 200, 3), 106})
    },
    **{
        f"larger-{seed}": lambda seed=seed: generate_scenario(seed, LARGER).problem
        for seed in range(10, 22)
    },
    **{name: lambda name=name: bundled_problems()[name] for name in SCENARIOS},
}
FAILING_SUBJECTS = ["chain-4", "chain-6", "default-106", "larger-14", *SCENARIOS]


class TestClassSharing:
    """Certifying each instance class once writes the per-instance report."""

    @pytest.mark.parametrize("name", sorted(SHARED_SUBJECTS))
    def test_matches_the_per_instance_report(self, name):
        _assert_shared_report_matches(SHARED_SUBJECTS[name]())

    @pytest.mark.parametrize("name", FAILING_SUBJECTS)
    def test_matches_without_disabling_negations(self, name, monkeypatch):
        _drop_disabling_negations(monkeypatch)
        _assert_shared_report_matches(SHARED_SUBJECTS[name]())

    @pytest.mark.parametrize("name", FAILING_SUBJECTS)
    def test_matches_when_a_needed_rule_is_dropped(self, name, monkeypatch):
        # The optimizer keeps no rule another kept rule contains, so
        # dropping its first kept rule changes the target: SEM003.
        _break_optimizer(monkeypatch, lambda rules: rules[1:])
        report = _assert_shared_report_matches(SHARED_SUBJECTS[name]())
        assert "SEM003" in {d.code for d in report.diagnostics}

    def test_a_failing_class_has_several_members(self, monkeypatch):
        # The properties above compare failures of one class's members,
        # not only of classes of one.
        _break_optimizer(monkeypatch, lambda rules: rules[1:])
        result = MappingSystem(cars.figure1_problem()).query_result()
        unoptimized = result.unoptimized
        keys = {
            label: key
            for label, _, key in verifier._classed_instances(
                unoptimized, verifier._constants(unoptimized, result.program)
            )
        }
        failed = Counter(
            keys[check.subject]
            for check in verify_result(result).failures()
            if check.name == "optimizer:differential"
            and keys[check.subject] is not None
        )
        assert max(failed.values()) >= 2


class TestClassKey:
    """Two instances share a class exactly when a renaming of their fresh
    values maps one onto the other."""

    def _keys(self, *rules):
        schema = SchemaBuilder("S").relation("R", "a", "b", "c").build()
        target = SchemaBuilder("T").relation("T", "a", "b").build()
        program = DatalogProgram(
            rules=list(rules), source_schema=schema, target_schema=target
        )
        classed = verifier._classed_instances(
            program, verifier._constants(program)
        )
        assert [label for label, _ in canonical_instances(program)] == [
            label for label, _, _ in classed
        ]
        return {label: key for label, _, key in classed}

    @staticmethod
    def _rule(*terms, **conditions):
        x, y = Variable("x"), Variable("y")
        return Rule(
            head=RelationalAtom("T", (x, y)),
            body=(RelationalAtom("R", terms),),
            **conditions,
        )

    def test_isomorphic_instances_share_a_key(self):
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        u, v, w = Variable("u"), Variable("v"), Variable("w")
        renamed = Rule(
            head=RelationalAtom("T", (u, v)),
            body=(RelationalAtom("R", (u, v, w)),),
        )
        keys = self._keys(self._rule(x, y, z), renamed, self._rule(x, y, x))
        assert keys["rule[0]:T"] == keys["rule[1]:T"] is not None
        assert keys["rule[2]:T"] not in (keys["rule[0]:T"], None)
        assert keys["union"] is None

    def test_null_and_fresh_differ(self):
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        keys = self._keys(self._rule(x, y, z), self._rule(x, y, z, null_vars=(z,)))
        assert keys["rule[0]:T"] != keys["rule[1]:T"]
        assert keys["rule[1]:T"][0][0][2] == (1, NULL)

    def test_pinned_constant_and_fresh_differ(self):
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        keys = self._keys(self._rule(x, y, z), self._rule(x, y, Constant("k")))
        assert keys["rule[0]:T"] != keys["rule[1]:T"]
        assert keys["rule[1]:T"][0][0][2] == (1, "k")

    def test_a_fresh_value_equal_to_a_program_constant_is_a_class_of_its_own(self):
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        plain = self._rule(x, y, z)
        mentions = self._rule(x, y, z, disequalities=(Disequality(z, Constant("r2.x#0")),))
        keys = self._keys(plain, mentions, plain)
        assert keys["rule[0]:T"] == keys["rule[1]:T"] is not None
        assert keys["rule[2]:T"] is None  # its fresh x is "r2.x#0"
