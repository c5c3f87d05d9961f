"""Tests for Clio-style filters on correspondences (paper section 7).

Filters restrict a correspondence with comparisons against constants.  The
paper argues they are *less* expressive than referenced-attribute
correspondences ("it is not possible to specify such a correspondence using
a traditional value correspondence, even resorting to filters") — the last
test demonstrates that gap executably.
"""

import pytest

from repro.core.correspondences import Filter, correspondence, parse_filter
from repro.core.pipeline import MappingProblem, MappingSystem
from repro.errors import CorrespondenceError
from repro.model.builder import SchemaBuilder
from repro.model.instance import instance_from_dict
from repro.model.values import NULL, is_labeled_null
from repro.scenarios import cars
from repro.sqlgen import run_on_sqlite


class TestFilterParsing:
    def test_equality_filter(self):
        item = parse_filter("P3.name = 'MJ'")
        assert item == Filter("P3", "name", "=", "MJ")

    def test_disequality_filter(self):
        item = parse_filter("P3.name != 'MJ'")
        assert item == Filter("P3", "name", "!=", "MJ")

    def test_unquoted_value(self):
        assert parse_filter("R.a = 7").value == "7"

    def test_bad_operator(self):
        with pytest.raises(CorrespondenceError):
            parse_filter("R.a < 3")

    def test_bad_attribute(self):
        with pytest.raises(CorrespondenceError):
            parse_filter("noDotHere = 'x'")

    def test_unsupported_operator_object(self):
        with pytest.raises(CorrespondenceError):
            Filter("R", "a", "<", "x")

    def test_where_clause_with_and(self):
        c = correspondence("A.x", "B.y", where="A.x = 'v' and A.z != 'w'")
        assert len(c.filters) == 2


class TestFilterValidation:
    def test_filter_relation_must_be_on_path(self, cars3, cars2):
        c = correspondence("P3.name", "P2.name", where="C3.model = 'Ford'")
        with pytest.raises(CorrespondenceError):
            c.validate(cars3, cars2)

    def test_filter_attribute_must_exist(self, cars3, cars2):
        c = correspondence("P3.name", "P2.name", where="P3.ghost = 'x'")
        with pytest.raises(CorrespondenceError):
            c.validate(cars3, cars2)

    def test_filter_on_path_relation_allowed(self, cars3):
        c = correspondence(
            "O3.person > P3.name", "C1.name", where="O3.car = 'c85'"
        )
        c.validate(cars3, cars.cars1_schema())


class TestFilteredTransformations:
    def _problem(self, where):
        source = SchemaBuilder("s").relation("Emp", "id", "name", "dept").build()
        target = SchemaBuilder("t").relation("ItStaff", "id", "name").build()
        problem = MappingProblem(source, target)
        problem.add_correspondence("Emp.id", "ItStaff.id")
        problem.add_correspondence("Emp.name", "ItStaff.name", where=where)
        return problem

    def _source(self, problem):
        return instance_from_dict(
            problem.source_schema,
            {
                "Emp": [
                    ("e1", "Ada", "it"),
                    ("e2", "Alan", "it"),
                    ("e3", "Grace", "hr"),
                ]
            },
        )

    def test_equality_filter_selects(self):
        problem = self._problem("Emp.dept = 'it'")
        system = MappingSystem(problem)
        output = system.transform(self._source(problem))
        assert set(output.relation("ItStaff").rows) == {("e1", "Ada"), ("e2", "Alan")}

    def test_disequality_filter_excludes(self):
        problem = self._problem("Emp.dept != 'it'")
        system = MappingSystem(problem)
        output = system.transform(self._source(problem))
        assert set(output.relation("ItStaff").rows) == {("e3", "Grace")}

    def test_filter_appears_in_premise(self):
        problem = self._problem("Emp.dept = 'it'")
        [mapping] = MappingSystem(problem).schema_mapping
        assert len(mapping.premise.equalities) == 1
        assert "'it'" in repr(mapping.premise.equalities[0])

    def test_sqlite_parity_with_filters(self):
        for where in ("Emp.dept = 'it'", "Emp.dept != 'it'"):
            problem = self._problem(where)
            system = MappingSystem(problem)
            source = self._source(problem)
            assert run_on_sqlite(system.transformation, source) == system.transform(
                source
            ), where

    def test_filter_on_referenced_path_step(self):
        # Filter on the *path* relation of an r-a correspondence: only
        # owners of car c85 contribute their name.
        problem = MappingProblem(cars.cars3_schema(), cars.cars1_schema())
        problem.add_correspondence("C3.car", "C1.car")
        problem.add_correspondence("C3.model", "C1.model")
        problem.add_correspondence(
            "O3.person > P3.name", "C1.name", where="O3.car = 'c85'"
        )
        system = MappingSystem(problem)
        output = system.transform(cars.cars3_source_instance())
        rows = {row[0]: row[2] for row in output.relation("C1")}
        assert rows["c85"] == "MJ"
        assert rows["c86"] is NULL

    def test_dsl_roundtrip_with_filters(self):
        from repro.dsl.parser import parse_problem
        from repro.dsl.renderer import render_problem

        problem = self._problem("Emp.dept != 'it'")
        restored = parse_problem(render_problem(problem))
        assert restored.correspondences[1].filters == problem.correspondences[1].filters

    def test_dsl_where_clause(self):
        from repro.dsl.parser import parse_problem

        problem = parse_problem(
            """
            source schema S:
              relation Emp (id key, name, dept)
            target schema T:
              relation ItStaff (id key, name)
            correspondences:
              Emp.id -> ItStaff.id
              Emp.name -> ItStaff.name where Emp.dept = 'it' [staff]
            """
        )
        c = problem.correspondences[1]
        assert c.label == "staff"
        assert c.filters == (Filter("Emp", "dept", "=", "it"),)


class TestFiltersCannotExpressOwnerNames:
    """The paper's section-7 claim, made executable.

    The desired mapping of Example 2.2 ("only owners' names flow into
    C1.name") is expressible with a referenced-attribute correspondence but
    with *no* filter on the plain correspondence ``P3.name -> C1.name``:
    filters compare attributes with constants, so for any constant-based
    filter there is an instance where it selects a non-owner or drops an
    owner.
    """

    def test_constant_filters_are_instance_specific(self):
        # A filter tuned to one instance (selecting p22, the owner)...
        problem = MappingProblem(cars.cars3_schema(), cars.cars1_schema())
        problem.add_correspondence("C3.car", "C1.car")
        problem.add_correspondence("C3.model", "C1.model")
        problem.add_correspondence("P3.name", "C1.name", where="P3.person = 'p22'")
        system = MappingSystem(problem)

        # ...matches the r-a semantics on the Figure-2 instance...
        original = cars.cars3_source_instance()
        filtered_output = system.transform(original)
        invented_cars = [
            row for row in filtered_output.relation("C1") if is_labeled_null(row[0])
        ]
        assert {row[2] for row in invented_cars} == {"MJ"}  # only p22 leaks

        # ...but breaks as soon as the ownership changes: p21 now owns c85,
        # yet the filter still selects p22 (a non-owner) and misses p21.
        moved = cars.cars3_source_instance()
        moved.relation("O3").discard(("c85", "p22"))
        moved.add("O3", ("c85", "p21"))
        wrong = system.transform(moved)
        invented = [row for row in wrong.relation("C1") if is_labeled_null(row[0])]
        assert {row[2] for row in invented} == {"MJ"}  # still the non-owner!

        ra_system = MappingSystem(cars.figure4_ra_problem())
        right = ra_system.transform(moved)
        names = {row[0]: row[2] for row in right.relation("C1")}
        assert names["c85"] == "John"  # the r-a correspondence adapts
        assert not any(is_labeled_null(row[0]) for row in right.relation("C1"))
