"""Tests for the flow engine's lattices and fixpoint solver."""

from __future__ import annotations

import pytest

from repro.analysis.flow import (
    BOTTOM,
    DET,
    MAYBE,
    NO,
    OPEN,
    SKEY,
    YES,
    Environment,
    FlowError,
    NullabilityLattice,
    RankedLattice,
    SetLattice,
    solve,
)
from repro.analysis.flow.lattice import Lattice
from repro.analysis.flow.solver import (
    MAX_VISITS_PER_RELATION,
    FlowResult,
    evaluation_order,
)
from repro.datalog.program import DatalogProgram, Rule
from repro.errors import ReproError
from repro.logic.atoms import RelationalAtom
from repro.logic.terms import Variable


def V(name):
    return Variable(name)


# -- lattices --------------------------------------------------------------


class TestNullabilityLattice:
    lattice = NullabilityLattice()

    def test_bottom(self):
        assert self.lattice.bottom() == BOTTOM

    def test_join_table(self):
        join = self.lattice.join
        assert join(BOTTOM, NO) == NO
        assert join(YES, BOTTOM) == YES
        assert join(NO, NO) == NO
        assert join(NO, YES) == MAYBE
        assert join(YES, MAYBE) == MAYBE
        assert join(MAYBE, NO) == MAYBE

    def test_leq_is_the_diamond_order(self):
        leq = self.lattice.leq
        for value in (BOTTOM, NO, YES, MAYBE):
            assert leq(BOTTOM, value)
            assert leq(value, MAYBE)
            assert leq(value, value)
        assert not leq(NO, YES)
        assert not leq(YES, NO)
        assert not leq(MAYBE, NO)

    def test_meet_table(self):
        meet = self.lattice.meet
        assert meet(MAYBE, NO) == NO
        assert meet(YES, MAYBE) == YES
        assert meet(NO, YES) == BOTTOM
        assert meet(NO, BOTTOM) == BOTTOM
        assert meet(NO, NO) == NO

    def test_join_all(self):
        assert self.lattice.join_all([]) == BOTTOM
        assert self.lattice.join_all([NO, NO]) == NO
        assert self.lattice.join_all([NO, YES]) == MAYBE


class TestSetLattice:
    def test_join_and_leq(self):
        lattice = SetLattice()
        a, b = frozenset({1}), frozenset({2})
        assert lattice.bottom() == frozenset()
        assert lattice.join(a, b) == {1, 2}
        assert lattice.leq(a, a | b)
        assert not lattice.leq(a | b, a)

    def test_default_widen_is_join(self):
        lattice = SetLattice()
        assert lattice.widen(frozenset({1}), frozenset({2})) == {1, 2}

    def test_universe_widen_jumps_to_top(self):
        universe = frozenset({1, 2, 3})
        lattice = SetLattice(universe=universe)
        assert lattice.widen(frozenset({1}), frozenset({1, 2})) == universe
        # No change: widening must not overshoot a reached fixpoint.
        assert lattice.widen(frozenset({1}), frozenset({1})) == {1}

    def test_format_is_sorted(self):
        lattice = SetLattice()
        assert lattice.format(frozenset({"b", "a"})) == "{a, b}"


class TestRankedLattice:
    def test_chain_order(self):
        lattice = RankedLattice((BOTTOM, SKEY, DET, OPEN))
        assert lattice.bottom() == BOTTOM
        assert lattice.join(SKEY, DET) == DET
        assert lattice.join(OPEN, SKEY) == OPEN
        assert lattice.leq(SKEY, DET)
        assert not lattice.leq(OPEN, DET)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            RankedLattice(())


def test_lattice_base_is_abstract():
    base = Lattice()
    with pytest.raises(NotImplementedError):
        base.bottom()
    with pytest.raises(NotImplementedError):
        base.join(1, 2)


# -- a synthetic analysis for solver tests ---------------------------------

INF = "inf"


class CounterLattice(Lattice):
    """Naturals under max — unbounded height, widening jumps to ``INF``."""

    def __init__(self, widen_to_top=True):
        self.widen_to_top = widen_to_top

    def bottom(self):
        return 0

    def join(self, left, right):
        if INF in (left, right):
            return INF
        return max(left, right)

    def widen(self, old, new):
        joined = self.join(old, new)
        if self.widen_to_top and joined != old:
            return INF
        return joined


class CountingAnalysis:
    """Head value = max over body positions, plus one.  Diverges without
    widening on recursive programs — exactly what the solver guard is for."""

    name = "counting"

    def __init__(self, widen_to_top=True):
        self.lattice = CounterLattice(widen_to_top)

    def seed(self, relation, position):
        return 0

    def transfer(self, rule, env):
        depth = 0
        for atom in rule.body:
            for index in range(len(atom.terms)):
                depth = self.lattice.join(depth, env.lookup(atom.relation, index))
        if depth == INF:
            return [INF for _ in rule.head.terms]
        return [depth + 1 for _ in rule.head.terms]


def chain_program(length=3):
    """``T1(x) <- S(x); T2(x) <- T1(x); ...`` — stratified, single sweep."""
    x = V("x")
    rules = [Rule(RelationalAtom("T1", (x,)), (RelationalAtom("S", (x,)),))]
    for index in range(2, length + 1):
        rules.append(
            Rule(
                RelationalAtom(f"T{index}", (x,)),
                (RelationalAtom(f"T{index - 1}", (x,)),),
            )
        )
    return DatalogProgram(rules=rules)


def recursive_program():
    """``T(x) <- S(x); T(x) <- T(x)`` — no stratification exists."""
    x = V("x")
    return DatalogProgram(
        rules=[
            Rule(RelationalAtom("T", (x,)), (RelationalAtom("S", (x,)),)),
            Rule(RelationalAtom("T", (x,)), (RelationalAtom("T", (x,)),)),
        ]
    )


class TestSolver:
    def test_chain_solves_in_one_sweep(self):
        program = chain_program(4)
        result = solve(program, CountingAnalysis())
        assert result.value("T1", 0) == 1
        assert result.value("T4", 0) == 4
        assert result.stats.iterations == result.stats.relations == 4
        assert result.stats.widenings == 0

    def test_seed_answers_undefined_relations(self):
        result = solve(chain_program(1), CountingAnalysis())
        assert result.value("S", 0) == 0  # the seed, not an error

    def test_recursive_program_widens_to_top(self):
        result = solve(recursive_program(), CountingAnalysis())
        assert result.value("T", 0) == INF
        assert result.stats.widenings > 0
        assert result.stats.iterations > 1

    def test_ineffective_widening_raises_flow_error(self):
        with pytest.raises(FlowError) as excinfo:
            solve(recursive_program(), CountingAnalysis(widen_to_top=False))
        assert "diverged" in str(excinfo.value)
        assert "counting" in str(excinfo.value)

    def test_divergence_guard_bounds_visits(self):
        analysis = CountingAnalysis(widen_to_top=False)
        try:
            solve(recursive_program(), analysis)
        except FlowError:
            pass
        # The guard fires at the ceiling, not after unbounded work.
        assert MAX_VISITS_PER_RELATION == 100

    def test_transfer_none_derives_nothing(self):
        class RefusingAnalysis(CountingAnalysis):
            def transfer(self, rule, env):
                return None

        result = solve(chain_program(2), RefusingAnalysis())
        assert result.value("T1", 0) == 0  # bottom: no rule contributed
        assert result.stats.updates == 0

    def test_relation_values_and_unknown_relation(self):
        program = chain_program(2)
        result = solve(program, CountingAnalysis())
        assert result.relation_values("T2") == [2]
        with pytest.raises(ReproError):
            result.relation_values("NOPE")

    def test_result_name(self):
        result = solve(chain_program(1), CountingAnalysis())
        assert result.name == "counting"
        assert isinstance(result, FlowResult)


class TestEvaluationOrder:
    def test_stratified_order_puts_dependencies_first(self):
        order = evaluation_order(chain_program(3))
        assert order == ["T1", "T2", "T3"]

    def test_recursive_fallback_is_definition_order(self):
        order = evaluation_order(recursive_program())
        assert order == ["T"]  # stratify raises; first-definition order


class TestEnvironment:
    def test_variable_matches_by_identity(self):
        x, other = V("x"), V("x")
        rule = Rule(
            RelationalAtom("T", (x,)),
            (RelationalAtom("A", (x, other)), RelationalAtom("B", (other,))),
        )
        analysis = CountingAnalysis()
        env = Environment(analysis)
        env.set("A", 0, 5)
        env.set("A", 1, 7)
        env.set("B", 0, 9)
        # x occurs (by identity) only at A[0]; the equal-but-distinct
        # Variable("x") at A[1] / B[0] must not leak in.
        assert env.variable(rule, x) == [5]
        assert env.variable(rule, other) == [7, 9]

    def test_defined_relations_start_at_bottom(self):
        env = Environment(CountingAnalysis())
        env.mark_defined("T")
        assert env.lookup("T", 0) == 0
        env.set("T", 0, 3)
        assert env.lookup("T", 0) == 3
