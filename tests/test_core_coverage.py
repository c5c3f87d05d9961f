"""Tests for coverage levels, coverage mappings and degree classification."""

from repro.core.chase import MODIFIED, chase_relation
from repro.core.correspondences import parse_referenced_attribute
from repro.core.coverage import (
    analyse_correspondence,
    coverage_level,
    coverage_mappings,
    is_covered_degree,
    is_poison_degree,
)
from repro.core.correspondences import correspondence
from repro.logic.tableau import MAND, NONE, NONNULL, NULL


def _c2_variants(cars2):
    tableaux = chase_relation(cars2, "C2", MODIFIED)
    return {
        ("null" if t.null_vars else "nonnull"): t for t in tableaux
    }


class TestCoverageLevels:
    def test_plain_attribute_levels(self, cars2):
        variants = _c2_variants(cars2)
        person = parse_referenced_attribute("C2.person")
        assert coverage_level(person, variants["null"]) == NULL
        assert coverage_level(person, variants["nonnull"]) == NONNULL
        model = parse_referenced_attribute("C2.model")
        assert coverage_level(model, variants["null"]) == MAND

    def test_absent_attribute_is_none(self, cars2):
        variants = _c2_variants(cars2)
        # P2 only occurs in the non-null variant.
        p2_name = parse_referenced_attribute("P2.name")
        assert coverage_level(p2_name, variants["null"]) == NONE
        assert coverage_level(p2_name, variants["nonnull"]) == MAND

    def test_referenced_attribute_level(self, cars3):
        tableaux = chase_relation(cars3, "O3", MODIFIED)
        owner_name = parse_referenced_attribute("O3.person > P3.name")
        assert coverage_level(owner_name, tableaux[0]) == MAND
        # In the P3-rooted tableau the path cannot start.
        p3 = chase_relation(cars3, "P3", MODIFIED)[0]
        assert coverage_level(owner_name, p3) == NONE

    def test_referenced_attribute_blocked_by_null_prefix(self, cars2):
        variants = _c2_variants(cars2)
        via_person = parse_referenced_attribute("C2.person > P2.name")
        assert coverage_level(via_person, variants["nonnull"]) == MAND
        assert coverage_level(via_person, variants["null"]) == NONE


class TestCoverageMappings:
    def test_mapping_indices(self, cars3):
        tableau = chase_relation(cars3, "O3", MODIFIED)[0]
        owner_name = parse_referenced_attribute("O3.person > P3.name")
        mappings = coverage_mappings(owner_name, tableau)
        assert len(mappings) == 1
        assert mappings[0].atom_indices == (0, 2)  # O3 atom, then P3 atom

    def test_referenced_term(self, cars3):
        tableau = chase_relation(cars3, "O3", MODIFIED)[0]
        owner_name = parse_referenced_attribute("O3.person > P3.name")
        [mapping] = coverage_mappings(owner_name, tableau)
        assert mapping.referenced_term(tableau) is tableau.term_at(2, "name")

    def test_no_mapping_for_absent_relation(self, cars3):
        tableau = chase_relation(cars3, "C3", MODIFIED)[0]
        owner_name = parse_referenced_attribute("O3.person > P3.name")
        assert coverage_mappings(owner_name, tableau) == []


class TestDegreeClassification:
    def test_covered_degrees(self):
        for degree in [(MAND, MAND), (MAND, NONNULL), (NONNULL, MAND), (NONNULL, NONNULL)]:
            assert is_covered_degree(degree)
            assert not is_poison_degree(degree)

    def test_poison_degrees(self):
        for degree in [(MAND, NULL), (NONNULL, NULL), (NULL, NONNULL)]:
            assert is_poison_degree(degree)
            assert not is_covered_degree(degree)

    def test_neutral_degrees(self):
        for degree in [(NULL, MAND), (NULL, NULL), (NONE, MAND), (MAND, NONE), (NULL, NONE)]:
            assert not is_covered_degree(degree)
            assert not is_poison_degree(degree)


def _analyse(correspondence, source_tableau, target_tableau):
    return analyse_correspondence(
        correspondence,
        coverage_mappings(correspondence.source, source_tableau),
        coverage_mappings(correspondence.target, target_tableau),
    )


class TestAnalyse:
    def test_covered_pair_suppresses_poison(self, cars3, cars2):
        # o2: O3.person -> C2.person is poison against the null variant but
        # covered against the non-null variant.
        o3 = chase_relation(cars3, "O3", MODIFIED)[0]
        variants = _c2_variants(cars2)
        o2 = correspondence("O3.person", "C2.person", "o2")
        against_null = _analyse(o2, o3, variants["null"])
        assert against_null.has_poison and not against_null.covered_pairs
        against_nonnull = _analyse(o2, o3, variants["nonnull"])
        assert against_nonnull.covered_pairs and not against_nonnull.has_poison

    def test_neutral_analysis(self, cars3, cars2):
        c3 = chase_relation(cars3, "C3", MODIFIED)[0]
        variants = _c2_variants(cars2)
        o2 = correspondence("O3.person", "C2.person", "o2")
        analysis = _analyse(o2, c3, variants["null"])
        assert not analysis.covered_pairs and not analysis.has_poison
