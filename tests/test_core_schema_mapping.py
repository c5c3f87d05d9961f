"""End-to-end tests for schema-mapping generation (Algorithms 1 and 3)."""

import pytest

from repro.core.schema_mapping import BASIC, NOVEL, generate_schema_mapping
from repro.errors import MappingGenerationError
from repro.scenarios import cars
from repro.scenarios.appendix_a import ALL_EXAMPLES, EXPECTED_MAPPINGS


def _mapping_shapes(schema_mapping):
    return {
        (
            tuple(a.relation for a in m.premise.atoms),
            tuple(a.relation for a in m.consequent),
            len(m.premise.null_vars),
            len(m.premise.nonnull_vars),
        )
        for m in schema_mapping
    }


class TestFigure1:
    def test_novel_schema_mapping(self, figure1_problem):
        result = generate_schema_mapping(
            figure1_problem.source_schema,
            figure1_problem.target_schema,
            figure1_problem.correspondences,
            algorithm=NOVEL,
        )
        assert _mapping_shapes(result.schema_mapping) == {
            (("P3",), ("P2",), 0, 0),
            (("C3",), ("C2",), 0, 0),
            (("O3", "C3", "P3"), ("C2", "P2"), 0, 0),
        }

    def test_basic_schema_mapping_has_undesirable_third(self, figure1_problem):
        result = generate_schema_mapping(
            figure1_problem.source_schema,
            figure1_problem.target_schema,
            figure1_problem.correspondences,
            algorithm=BASIC,
        )
        # Basic: C3 -> C2, P2 ("each car has an owner" — section 2).
        assert (("C3",), ("C2", "P2"), 0, 0) in _mapping_shapes(result.schema_mapping)

    def test_covered_correspondences_shared_into_consequent(self, figure1_problem):
        result = generate_schema_mapping(
            figure1_problem.source_schema,
            figure1_problem.target_schema,
            figure1_problem.correspondences,
        )
        joined = result.schema_mapping.mappings[-1]
        # In O3,C3,P3 -> C2,P2 the C2.person term is the O3.person variable.
        o3_person = joined.premise.atoms[0].terms[1]
        c2_person = joined.consequent[0].terms[2]
        assert o3_person is c2_person

    def test_report_details(self, figure1_problem):
        result = generate_schema_mapping(
            figure1_problem.source_schema,
            figure1_problem.target_schema,
            figure1_problem.correspondences,
        )
        report = result.report
        assert report.skeleton_count == 9
        assert len(report.source_tableaux) == 3
        assert len(report.target_tableaux) == 3
        assert len(report.kept) == 3
        rules = {record.rule for record in report.pruned}
        assert {"subsumption", "nonnull-extension"} <= rules


class TestFigure4:
    def test_plain_correspondences_keep_person_mapping(self):
        problem = cars.figure4_problem()
        result = generate_schema_mapping(
            problem.source_schema, problem.target_schema, problem.correspondences
        )
        shapes = _mapping_shapes(result.schema_mapping)
        assert (("P3",), ("C1",), 0, 0) in shapes  # invented car per person
        assert len(result.schema_mapping) == 3

    def test_ra_correspondence_drops_person_mapping(self):
        problem = cars.figure4_ra_problem()
        result = generate_schema_mapping(
            problem.source_schema, problem.target_schema, problem.correspondences
        )
        shapes = _mapping_shapes(result.schema_mapping)
        assert len(result.schema_mapping) == 2
        assert not any(premise == (("P3",),) for premise, *_ in shapes)


class TestFigure9:
    def test_example_4_1_schema_mapping(self):
        problem = cars.figure9_problem()
        result = generate_schema_mapping(
            problem.source_schema, problem.target_schema, problem.correspondences
        )
        assert _mapping_shapes(result.schema_mapping) == {
            (("C3",), ("C1a",), 0, 0),
            (("O3", "C3", "P3"), ("C1a",), 0, 0),
        }


class TestFigure7Basic:
    def test_section_3_2_walkthrough(self):
        problem = cars.figure7_problem()
        result = generate_schema_mapping(
            problem.source_schema,
            problem.target_schema,
            problem.correspondences,
            algorithm=BASIC,
        )
        assert _mapping_shapes(result.schema_mapping) == {
            (("P2a",), ("P3",), 0, 0),
            (("C2a", "P2a"), ("O3", "C3", "P3"), 0, 0),
        }


class TestFigure12:
    def test_example_c2_schema_mapping(self):
        problem = cars.figure12_problem()
        result = generate_schema_mapping(
            problem.source_schema, problem.target_schema, problem.correspondences
        )
        assert len(result.schema_mapping) == 3
        premises = {tuple(a.relation for a in m.premise.atoms) for m in result.schema_mapping}
        assert premises == {("C4",), ("O4", "C4", "P4"), ("D4", "C4", "P4")}

    def test_sixteen_skeletons(self):
        problem = cars.figure12_problem()
        result = generate_schema_mapping(
            problem.source_schema, problem.target_schema, problem.correspondences
        )
        assert result.report.skeleton_count == 16


class TestFigure14:
    def test_example_c3_source_conditions(self):
        problem = cars.figure14_problem()
        result = generate_schema_mapping(
            problem.source_schema, problem.target_schema, problem.correspondences
        )
        assert _mapping_shapes(result.schema_mapping) == {
            (("P2",), ("P3",), 0, 0),
            (("C2",), ("C3",), 1, 0),  # premise carries p = null
            (("C2", "P2"), ("O3", "C3", "P3"), 0, 1),  # premise carries p != null
        }


class TestAppendixA:
    @pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
    def test_expected_mapping_count(self, name):
        problem = ALL_EXAMPLES[name]()
        result = generate_schema_mapping(
            problem.source_schema, problem.target_schema, problem.correspondences
        )
        assert len(result.schema_mapping) == EXPECTED_MAPPINGS[name], name

    def test_a7_splits_on_source_null(self):
        problem = ALL_EXAMPLES["A.7"]()
        result = generate_schema_mapping(
            problem.source_schema, problem.target_schema, problem.correspondences
        )
        conditions = sorted(
            (len(m.premise.null_vars), len(m.premise.nonnull_vars))
            for m in result.schema_mapping
        )
        assert conditions == [(0, 1), (1, 0)]

    def test_a9_keeps_matching_polarities(self):
        problem = ALL_EXAMPLES["A.9"]()
        result = generate_schema_mapping(
            problem.source_schema, problem.target_schema, problem.correspondences
        )
        # null source -> null target, non-null source -> non-null target.
        for mapping in result.schema_mapping:
            if mapping.premise.null_vars:
                # The email correspondence is not covered: the target email
                # variable stays existential.
                assert len(mapping.existential_variables()) == 1
            else:
                assert not mapping.existential_variables()


def test_unknown_algorithm_rejected(figure1_problem):
    with pytest.raises(MappingGenerationError):
        generate_schema_mapping(
            figure1_problem.source_schema,
            figure1_problem.target_schema,
            figure1_problem.correspondences,
            algorithm="mystery",
        )


def test_labels_are_sequential(figure1_problem):
    result = generate_schema_mapping(
        figure1_problem.source_schema,
        figure1_problem.target_schema,
        figure1_problem.correspondences,
    )
    assert [m.label for m in result.schema_mapping] == ["m1", "m2", "m3"]
