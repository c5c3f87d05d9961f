"""Tests for the four skolemization strategies (Appendix B)."""

import pytest

from repro.core.skolem import (
    ALL_SOURCE_OR_KEY_VARS,
    ALL_SOURCE_VARS,
    SOURCE_AND_RHS_VARS,
    SOURCE_HERE_AND_REF_VARS,
    STRATEGIES,
    skolemize_mapping,
)
from repro.errors import QueryGenerationError
from repro.logic.terms import NULL_TERM, SkolemTerm, Variable
from repro.scenarios.appendix_b import ALL_SCENARIOS


def _skolemized_terms(scenario, strategy):
    mapping = scenario.schema_mapping.mappings[0]
    result = skolemize_mapping(
        mapping, scenario.target_schema, strategy, use_null_for_nullable=True
    )
    return result.consequent


def _arg_names(term: SkolemTerm):
    names = []
    for arg in term.args:
        if isinstance(arg, Variable):
            names.append(arg.name)
        elif isinstance(arg, SkolemTerm):
            names.append(repr(arg))
    return names


class TestExampleB1:
    """B.1: the key variable's functor arguments per strategy."""

    def test_all_source_vars(self):
        scenario = ALL_SCENARIOS["B.1"]()
        [atom] = _skolemized_terms(scenario, ALL_SOURCE_VARS)
        key = atom.terms[0]
        assert isinstance(key, SkolemTerm)
        assert _arg_names(key) == ["id", "n", "s"]

    def test_source_and_rhs_vars(self):
        scenario = ALL_SCENARIOS["B.1"]()
        [atom] = _skolemized_terms(scenario, SOURCE_AND_RHS_VARS)
        assert _arg_names(atom.terms[0]) == ["n", "s"]

    def test_all_source_or_key_vars(self):
        scenario = ALL_SCENARIOS["B.1"]()
        [atom] = _skolemized_terms(scenario, ALL_SOURCE_OR_KEY_VARS)
        assert _arg_names(atom.terms[0]) == ["id", "n", "s"]

    def test_source_here_and_ref_vars(self):
        scenario = ALL_SCENARIOS["B.1"]()
        [atom] = _skolemized_terms(scenario, SOURCE_HERE_AND_REF_VARS)
        assert _arg_names(atom.terms[0]) == ["n", "s"]


class TestExampleB2:
    """B.2: nested functors under All-Source-Or-Key-Vars."""

    def test_all_source_or_key_nests_email_under_key(self):
        scenario = ALL_SCENARIOS["B.2"]()
        [atom] = _skolemized_terms(scenario, ALL_SOURCE_OR_KEY_VARS)
        key, _name, email = atom.terms
        assert isinstance(key, SkolemTerm) and isinstance(email, SkolemTerm)
        assert email.args == (key,)  # f_email(f_key(...))

    def test_source_and_rhs_uses_name_only(self):
        scenario = ALL_SCENARIOS["B.2"]()
        [atom] = _skolemized_terms(scenario, SOURCE_AND_RHS_VARS)
        assert _arg_names(atom.terms[0]) == ["n"]
        assert _arg_names(atom.terms[2]) == ["n"]


class TestExampleB3:
    """B.3: a variable linking a foreign key to a referenced key."""

    def test_all_source_or_key_uses_referencing_atom_key(self):
        scenario = ALL_SCENARIOS["B.3"]()
        student, school = _skolemized_terms(scenario, ALL_SOURCE_OR_KEY_VARS)
        sid = student.terms[2]
        assert isinstance(sid, SkolemTerm)
        assert _arg_names(sid) == ["id"]  # f_sid(id), the paper's choice
        assert school.terms[0] == sid

    def test_source_here_and_ref_uses_key_atom(self):
        scenario = ALL_SCENARIOS["B.3"]()
        student, school = _skolemized_terms(scenario, SOURCE_HERE_AND_REF_VARS)
        sid = student.terms[2]
        assert _arg_names(sid) == ["sn"]  # f_sid(schoolname)


class TestExampleB4:
    """B.4: the city functor."""

    def test_all_source_or_key_uses_school_key(self):
        scenario = ALL_SCENARIOS["B.4"]()
        _student, school = _skolemized_terms(scenario, ALL_SOURCE_OR_KEY_VARS)
        city = school.terms[2]
        assert _arg_names(city) == ["sid"]  # f_city(sid): functional!

    def test_all_source_vars_uses_everything(self):
        scenario = ALL_SCENARIOS["B.4"]()
        _student, school = _skolemized_terms(scenario, ALL_SOURCE_VARS)
        assert _arg_names(school.terms[2]) == ["id", "n", "sid", "sc"]

    def test_source_here_and_ref_uses_atom_vars(self):
        scenario = ALL_SCENARIOS["B.4"]()
        _student, school = _skolemized_terms(scenario, SOURCE_HERE_AND_REF_VARS)
        assert _arg_names(school.terms[2]) == ["sid", "sc"]  # f_city(sid, scname)


class TestExampleB5:
    def test_key_only_variable(self):
        scenario = ALL_SCENARIOS["B.5"]()
        [school] = _skolemized_terms(scenario, ALL_SOURCE_OR_KEY_VARS)
        assert _arg_names(school.terms[0]) == ["id", "n", "sn"]
        [school] = _skolemized_terms(scenario, SOURCE_HERE_AND_REF_VARS)
        assert _arg_names(school.terms[0]) == ["sn"]


class TestNullPolicy:
    def test_nullable_only_variables_become_null(self):
        from repro.scenarios.cars import figure1_problem
        from repro.core.schema_mapping import generate_schema_mapping

        problem = figure1_problem()
        result = generate_schema_mapping(
            problem.source_schema, problem.target_schema, problem.correspondences
        )
        # C3 -> C2
        cars_mapping = next(m for m in result.schema_mapping if m.label == "m2")
        skolemized = skolemize_mapping(
            cars_mapping, problem.target_schema, use_null_for_nullable=True
        )
        assert skolemized.consequent[0].terms[2] is NULL_TERM

    def test_basic_mode_skolemizes_nullable(self):
        from repro.scenarios.cars import figure1_problem
        from repro.core.schema_mapping import generate_schema_mapping, BASIC

        problem = figure1_problem()
        result = generate_schema_mapping(
            problem.source_schema,
            problem.target_schema,
            problem.correspondences,
            algorithm=BASIC,
        )
        # C3 -> C2, P2
        cars_mapping = next(m for m in result.schema_mapping if m.label == "m2")
        skolemized = skolemize_mapping(
            cars_mapping,
            problem.target_schema,
            SOURCE_AND_RHS_VARS,
            use_null_for_nullable=False,
        )
        person = skolemized.consequent[0].terms[2]
        assert isinstance(person, SkolemTerm)
        assert _arg_names(person) == ["c", "m"]  # the paper's f_P(c, m)


class TestMachinery:
    def test_functor_names_include_mapping_label(self):
        scenario = ALL_SCENARIOS["B.2"]()
        [atom] = _skolemized_terms(scenario, ALL_SOURCE_OR_KEY_VARS)
        assert "@m1" in atom.terms[0].functor

    def test_no_existentials_is_identity(self):
        scenario = ALL_SCENARIOS["B.4"]()
        mapping = scenario.schema_mapping.mappings[0]
        # Remove the existential position by reusing a premise variable.
        bound = mapping.substitute_consequent(
            {mapping.existential_variables()[0]: mapping.source_variables()[0]}
        )
        result = skolemize_mapping(bound, scenario.target_schema)
        assert result.consequent == bound.consequent

    def test_unknown_strategy_rejected(self):
        scenario = ALL_SCENARIOS["B.1"]()
        with pytest.raises(QueryGenerationError):
            skolemize_mapping(
                scenario.schema_mapping.mappings[0],
                scenario.target_schema,
                strategy="bogus",
            )

    def test_all_strategies_listed(self):
        assert len(STRATEGIES) == 4
