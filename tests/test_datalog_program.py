"""Tests for Datalog rules and programs: safety, validation."""

import dataclasses
import importlib

import pytest

from repro.datalog.engine import evaluate
from repro.datalog.program import DatalogProgram, Rule
from repro.errors import DatalogError
from repro.logic.atoms import Equality, RelationalAtom
from repro.logic.terms import Constant, Variable
from repro.model.builder import SchemaBuilder
from repro.model.instance import instance_from_dict


def V(name):
    return Variable(name)


def _simple_schema():
    return SchemaBuilder("t").relation("T", "k", "v").build()


class TestSafety:
    def test_safe_rule(self):
        x, y = V("x"), V("y")
        rule = Rule(
            head=RelationalAtom("T", (x, y)),
            body=(RelationalAtom("S", (x, y)),),
        )
        rule.check_safety()  # no exception

    def test_unbound_head_variable(self):
        x, y = V("x"), V("y")
        rule = Rule(head=RelationalAtom("T", (x, y)), body=(RelationalAtom("S", (x,)),))
        with pytest.raises(DatalogError):
            rule.check_safety()

    def test_unbound_negated_variable(self):
        x, y = V("x"), V("y")
        rule = Rule(
            head=RelationalAtom("T", (x,)),
            body=(RelationalAtom("S", (x,)),),
            negated=(RelationalAtom("N", (y,)),),
        )
        with pytest.raises(DatalogError):
            rule.check_safety()

    def test_unbound_condition_variable(self):
        x, y = V("x"), V("y")
        rule = Rule(
            head=RelationalAtom("T", (x,)),
            body=(RelationalAtom("S", (x,)),),
            null_vars=(y,),
        )
        with pytest.raises(DatalogError):
            rule.check_safety()

    def test_unbound_equality_variable(self):
        x, y = V("x"), V("y")
        rule = Rule(
            head=RelationalAtom("T", (x,)),
            body=(RelationalAtom("S", (x,)),),
            equalities=(Equality(x, y),),
        )
        with pytest.raises(DatalogError):
            rule.check_safety()

    def test_constants_in_head_are_safe(self):
        x = V("x")
        rule = Rule(
            head=RelationalAtom("T", (x, Constant("c"))),
            body=(RelationalAtom("S", (x,)),),
        )
        rule.check_safety()


class TestProgramValidation:
    def test_negated_relation_must_be_defined(self):
        x = V("x")
        program = DatalogProgram(
            rules=[
                Rule(
                    head=RelationalAtom("T", (x, x)),
                    body=(RelationalAtom("S", (x,)),),
                    negated=(RelationalAtom("Ghost", (x,)),),
                )
            ],
            target_schema=_simple_schema(),
        )
        with pytest.raises(DatalogError):
            program.validate()

    def test_recursion_rejected(self):
        x, y = V("x"), V("y")
        program = DatalogProgram(
            rules=[
                Rule(
                    head=RelationalAtom("T", (x, y)),
                    body=(RelationalAtom("T", (y, x)),),
                )
            ],
            target_schema=_simple_schema(),
        )
        with pytest.raises(DatalogError):
            program.validate()

    def test_mutual_recursion_rejected(self):
        x = V("x")
        y = V("y")
        program = DatalogProgram(
            rules=[
                Rule(head=RelationalAtom("A", (x,)), body=(RelationalAtom("B", (x,)),)),
                Rule(head=RelationalAtom("B", (y,)), body=(RelationalAtom("A", (y,)),)),
            ]
        )
        with pytest.raises(DatalogError):
            program.validate()

    def test_helpers(self):
        x = V("x")
        rule_a = Rule(head=RelationalAtom("T", (x, x)), body=(RelationalAtom("S", (x,)),))
        rule_b = Rule(head=RelationalAtom("U", (x,)), body=(RelationalAtom("S", (x,)),))
        program = DatalogProgram(rules=[rule_a, rule_b], intermediates={"U": 1})
        assert program.defined_relations() == ["T", "U"]
        assert program.rules_for("T") == [rule_a]
        assert program.target_rules() == [rule_a]
        assert len(program) == 2


class TestValidationMemo:
    """``validate()`` keeps its order per rule tuple, and only on success."""

    x, y = V("x"), V("y")
    t_xy = RelationalAtom("T", (x, y))
    copy = Rule(head=t_xy, body=(RelationalAtom("S", (x, y)),))
    unsafe = Rule(head=t_xy, body=(RelationalAtom("S", (x,)),))
    recursive = Rule(head=t_xy, body=(RelationalAtom("T", (y, x)),))
    projection = Rule(head=RelationalAtom("U", (x,)), body=(RelationalAtom("S", (x, y)),))

    def _validated(self):
        source = SchemaBuilder("s").relation("S", "k", "v").build()
        program = DatalogProgram(
            rules=[self.copy], source_schema=source, target_schema=_simple_schema()
        )
        assert program.validate() == ("T",)
        return program

    def _source(self, program):
        return instance_from_dict(program.source_schema, {"S": [("a", 1)]})

    def _code(self, program):
        with pytest.raises(DatalogError) as info:
            evaluate(program, self._source(program))
        return info.value.diagnostic.code

    def test_unchanged_rules_are_not_rechecked(self, monkeypatch):
        program = self._validated()
        calls = []
        # the package re-exports the function under the submodule's name
        stratify_module = importlib.import_module("repro.datalog.stratify")
        real = stratify_module.stratify
        monkeypatch.setattr(
            stratify_module, "stratify", lambda p: calls.append(p) or real(p)
        )
        for _ in range(3):
            assert evaluate(program, self._source(program)).target.relation("T").rows
        assert program.validate() == program.stratification() == ("T",)
        assert calls == []

    def test_appended_unsafe_rule_raises(self):
        program = self._validated()
        program.rules.append(self.unsafe)
        assert self._code(program) == "DLG001"

    def test_assigned_recursive_rules_raise(self):
        program = self._validated()
        program.rules = [self.recursive]
        assert self._code(program) == "DLG002"

    def test_in_place_replacement_is_rechecked(self):
        program = self._validated()
        program.rules[0] = self.unsafe
        assert self._code(program) == "DLG001"
        program.rules[0] = self.projection
        assert program.validate() == ("U",)

    def test_failing_program_raises_on_every_call(self):
        program = self._validated()
        program.rules = [self.copy, self.unsafe]
        for _ in range(3):
            assert self._code(program) == "DLG001"
            with pytest.raises(DatalogError):
                program.validate()
        program.rules = [self.copy]
        assert program.validate() == ("T",)

    def test_replace_never_reuses_the_old_order(self):
        program = self._validated()
        recursive = dataclasses.replace(program, rules=[self.recursive])
        assert self._code(recursive) == "DLG002"
        renamed = dataclasses.replace(program, rules=[self.projection])
        assert renamed.validate() == ("U",)
        assert renamed != program and program.validate() == ("T",)
