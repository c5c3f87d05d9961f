"""Tests for the Datalog evaluation engine."""

import pytest

from repro.datalog.engine import RowStore, evaluate, evaluate_rule, evaluate_rules
from repro.datalog.program import DatalogProgram, Rule
from repro.errors import EvaluationError
from repro.logic.atoms import Equality, RelationalAtom
from repro.logic.terms import NULL_TERM, Constant, SkolemTerm, Variable
from repro.model.builder import SchemaBuilder
from repro.model.instance import Instance, instance_from_dict
from repro.model.values import NULL, LabeledNull


def V(name):
    return Variable(name)


def _store(**relations):
    store = RowStore()
    for name, rows in relations.items():
        store.add_relation(name, rows)
    return store


class TestRuleEvaluation:
    def test_copy_rule(self):
        x, y = V("x"), V("y")
        rule = Rule(head=RelationalAtom("T", (x, y)), body=(RelationalAtom("S", (x, y)),))
        store = _store(S=[("a", 1), ("b", 2)])
        assert sorted(evaluate_rule(rule, store)) == [("a", 1), ("b", 2)]

    def test_join_on_shared_variable(self):
        x, y, z = V("x"), V("y"), V("z")
        rule = Rule(
            head=RelationalAtom("T", (x, z)),
            body=(RelationalAtom("R", (x, y)), RelationalAtom("S", (y, z))),
        )
        store = _store(R=[("a", "k1"), ("b", "k2")], S=[("k1", "v1"), ("k3", "v3")])
        assert evaluate_rule(rule, store) == [("a", "v1")]

    def test_join_matches_null_values(self):
        # null is an ordinary value in the paper's semantics: it joins.
        x, y = V("x"), V("y")
        rule = Rule(
            head=RelationalAtom("T", (x,)),
            body=(RelationalAtom("R", (x, y)), RelationalAtom("S", (y,))),
        )
        store = _store(R=[("a", NULL)], S=[(NULL,)])
        assert evaluate_rule(rule, store) == [("a",)]

    def test_repeated_variable_in_atom(self):
        x = V("x")
        rule = Rule(head=RelationalAtom("T", (x,)), body=(RelationalAtom("R", (x, x)),))
        store = _store(R=[("a", "a"), ("a", "b")])
        assert evaluate_rule(rule, store) == [("a",)]

    def test_constant_in_body(self):
        x = V("x")
        rule = Rule(
            head=RelationalAtom("T", (x,)),
            body=(RelationalAtom("R", (Constant("only"), x)),),
        )
        store = _store(R=[("only", 1), ("other", 2)])
        assert evaluate_rule(rule, store) == [(1,)]

    def test_null_term_in_body(self):
        x = V("x")
        rule = Rule(
            head=RelationalAtom("T", (x,)),
            body=(RelationalAtom("R", (x, NULL_TERM)),),
        )
        store = _store(R=[("a", NULL), ("b", "x")])
        assert evaluate_rule(rule, store) == [("a",)]

    def test_null_and_nonnull_conditions(self):
        x, y = V("x"), V("y")
        store = _store(R=[("a", NULL), ("b", "v")])
        base = dict(head=RelationalAtom("T", (x,)), body=(RelationalAtom("R", (x, y)),))
        null_rule = Rule(null_vars=(y,), **base)
        nonnull_rule = Rule(nonnull_vars=(y,), **base)
        assert evaluate_rule(null_rule, store) == [("a",)]
        assert evaluate_rule(nonnull_rule, store) == [("b",)]

    def test_equality_condition(self):
        x, y, z = V("x"), V("y"), V("z")
        rule = Rule(
            head=RelationalAtom("T", (x,)),
            body=(RelationalAtom("R", (x, y, z)),),
            equalities=(Equality(y, z),),
        )
        store = _store(R=[("a", 1, 1), ("b", 1, 2)])
        assert evaluate_rule(rule, store) == [("a",)]

    def test_negation(self):
        x = V("x")
        rule = Rule(
            head=RelationalAtom("T", (x,)),
            body=(RelationalAtom("R", (x,)),),
            negated=(RelationalAtom("Block", (x,)),),
        )
        store = _store(R=[("a",), ("b",)], Block=[("b",)])
        assert evaluate_rule(rule, store) == [("a",)]

    def test_skolem_head_builds_labeled_null(self):
        x = V("x")
        rule = Rule(
            head=RelationalAtom("T", (x, SkolemTerm("f", [x]))),
            body=(RelationalAtom("R", (x,)),),
        )
        store = _store(R=[("a",)])
        assert evaluate_rule(rule, store) == [("a", LabeledNull("f", ("a",)))]

    def test_nested_skolem_head(self):
        x = V("x")
        nested = SkolemTerm("g", [SkolemTerm("f", [x])])
        rule = Rule(
            head=RelationalAtom("T", (x, nested)),
            body=(RelationalAtom("R", (x,)),),
        )
        store = _store(R=[("a",)])
        [(_, value)] = evaluate_rule(rule, store)
        assert value == LabeledNull("g", (LabeledNull("f", ("a",)),))

    def test_duplicate_results_deduplicated(self):
        x, y = V("x"), V("y")
        rule = Rule(head=RelationalAtom("T", (x,)), body=(RelationalAtom("R", (x, y)),))
        store = _store(R=[("a", 1), ("a", 2)])
        assert evaluate_rule(rule, store) == [("a",)]

    def test_unknown_relation_raises(self):
        x = V("x")
        rule = Rule(head=RelationalAtom("T", (x,)), body=(RelationalAtom("Nope", (x,)),))
        with pytest.raises(EvaluationError):
            evaluate_rule(rule, _store())

    @pytest.mark.parametrize("kind", ["null", "nonnull", "negated", "head"])
    @pytest.mark.parametrize("memo", [False, True])
    def test_unbound_variable_is_a_named_evaluation_error(self, kind, memo):
        """A rule using a variable its body does not bind fails where its
        join is planned, naming the variable, with or without a plan memo
        and whether or not the join finds a binding."""
        x, y = V("x"), V("y")
        fields = {
            "null": {"null_vars": (y,)},
            "nonnull": {"nonnull_vars": (y,)},
            "negated": {"negated": (RelationalAtom("N", (y,)),)},
            "head": {"head": RelationalAtom("H", (x, y))},
        }[kind]
        rule = Rule(
            **{"head": RelationalAtom("H", (x,)), **fields},
            body=(RelationalAtom("S", (x,)),),
        )
        for rows in ([("a",)], [("a",), ("b",)]):
            plans = {} if memo else None
            with pytest.raises(EvaluationError, match="variable y not bound"):
                evaluate_rules([rule], {"S": rows, "N": []}, plans=plans)
        rule = Rule(  # its join finds no binding
            **{"head": RelationalAtom("H", (x,)), **fields},
            body=(RelationalAtom("S", (x,)), RelationalAtom("S2", (x,))),
        )
        with pytest.raises(EvaluationError, match="variable y not bound"):
            evaluate_rules([rule], {"S": [("a",)], "S2": [("b",)], "N": []})

    def test_cartesian_product(self):
        x, y = V("x"), V("y")
        rule = Rule(
            head=RelationalAtom("T", (x, y)),
            body=(RelationalAtom("R", (x,)), RelationalAtom("S", (y,))),
        )
        store = _store(R=[("a",), ("b",)], S=[(1,), (2,)])
        assert len(evaluate_rule(rule, store)) == 4


class TestProgramEvaluation:
    def _program(self):
        source = SchemaBuilder("src").relation("S", "k", "v").build()
        target = SchemaBuilder("tgt").relation("T", "k", "v").build()
        x, y = V("x"), V("y")
        k = V("k")
        rules = [
            Rule(head=RelationalAtom("T", (x, y)), body=(RelationalAtom("S", (x, y)),),
                 negated=(RelationalAtom("Skip", (x,)),)),
            Rule(head=RelationalAtom("Skip", (k,)), body=(RelationalAtom("S", (k, Constant("hide"))),)),
        ]
        return source, DatalogProgram(
            rules=rules, source_schema=source, target_schema=target,
            intermediates={"Skip": 1},
        )

    def test_stratified_evaluation(self):
        source, program = self._program()
        instance = instance_from_dict(source, {"S": [("a", "x"), ("b", "hide")]})
        result = evaluate(program, instance)
        assert set(result.target.relation("T").rows) == {("a", "x")}
        assert result.intermediates["Skip"] == [("b",)]

    def test_requires_target_schema(self):
        source, program = self._program()
        program.target_schema = None
        with pytest.raises(EvaluationError):
            evaluate(program, Instance(source))

    def test_figure1_end_to_end(self, figure1_problem, cars3_instance):
        from repro.core.pipeline import MappingSystem
        from repro.scenarios.cars import figure3_expected_target

        system = MappingSystem(figure1_problem)
        result = evaluate(system.transformation, cars3_instance)
        assert result.target == figure3_expected_target()


class TestStoreIndexInvalidation:
    """Re-adding a relation must drop indexes built over its old rows."""

    def test_readd_invalidates_indexes(self):
        store = _store(S=[("a", 1), ("b", 2)])
        assert store.index("S", (0,)) == {("a",): [("a", 1)], ("b",): [("b", 2)]}
        store.add_relation("S", [("c", 3)])
        assert store.index("S", (0,)) == {("c",): [("c", 3)]}
        assert ("a",) not in store.index("S", (0,))

    def test_readd_keeps_other_relations_indexes(self):
        store = _store(S=[("a", 1)], R=[("x",)])
        r_index = store.index("R", (0,))
        store.add_relation("S", [("b", 2)])
        assert store.index("R", (0,)) is r_index

    def test_join_after_readd_sees_fresh_rows(self):
        x, y = V("x"), V("y")
        rule = Rule(
            head=RelationalAtom("T", (x, y)),
            body=(RelationalAtom("R", (x,)), RelationalAtom("S", (x, y))),
        )
        store = _store(R=[("a",), ("c",)], S=[("a", 1)])
        assert evaluate_rule(rule, store) == [("a", 1)]
        # The first evaluation built an index on S; replacing S's rows must
        # not let that index leak into the second evaluation.
        store.add_relation("S", [("c", 3)])
        assert evaluate_rule(rule, store) == [("c", 3)]
