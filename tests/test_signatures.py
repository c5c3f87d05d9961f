"""The tests in front of the pairwise searches, checked against the searches.

* *Mark dominance* (:func:`repro.logic.homomorphism.dominated`): a
  homomorphism under :func:`condition_check` maps each
  pattern atom onto a target atom whose marks dominate its own.  On random
  clauses with conditions, constants, ``null`` and Skolem terms and random
  pre-bound variables, dominance failing means the search finds nothing;
  a prepared target gives the same witness as the plain atom list.  On the
  stage-1 subsumption pairs and the optimizer's rule pairs of generated and
  synthetic problems, every pair the test skips is one the search rejects.
* *Key-path clash* (:meth:`repro.core.functionality.PairChecker.clash`):
  on every same-relation pair of the unitary mappings of DEFAULT seeds,
  larger-shape seeds, chain-8 and random premises, and on the certifier's
  rule pairs, a clash means the saturated pair closure is contradictory
  with the same text.
* The coverage memo of candidate generation gives the same coverage
  mappings and skeleton analyses as fresh calls, on every tableau and
  skeleton of chain_problem(2..6), wide_problem(2..8) and DEFAULT seeds
  0-49, and the same ``coverage.*`` counts.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.certify.closure import rule_clause
from repro.core import candidates
from repro.core.chase import logical_relations
from repro.core.coverage import analyse_correspondence, coverage_mappings
from repro.core.functionality import PairChecker
from repro.core.pipeline import MappingSystem
from repro.core.pruning import PreparedTableaux, _binding_fixed_pairs
from repro.core.schema_mapping import NOVEL
from repro.datalog.optimize import prepared_rule, subsumes_rule
from repro.logic.atoms import RelationalAtom
from repro.logic.mappings import Premise, UnitaryMapping
from repro.logic.homomorphism import (
    PreparedClause,
    condition_check,
    dominated,
    find_homomorphism,
    pattern_marks,
)
from repro.logic.satisfiability import NULL_CLASH
from repro.logic.terms import NULL_TERM, Constant, SkolemTerm, Variable
from repro.obs import Tracer, use_tracer
from repro.scenarios.generator import DEFAULT, generate_scenario
from repro.scenarios.synthetic import chain_problem, wide_problem

from .test_pair_checks import (
    SOURCE,
    TARGET,
    compiled_program,
    same_relation_pairs,
    unitary,
    unitary_mappings,
)

# ---------------------------------------------------------------------------
# Mark dominance on random clauses.

ARITY = {"P": 2, "Q": 3}
PATTERN_VARS = [Variable(f"p{i}") for i in range(4)]
TARGET_VARS = [Variable(f"t{i}") for i in range(4)]
GROUND = [Constant("c"), Constant("d"), NULL_TERM, SkolemTerm("f", [TARGET_VARS[0]])]


@st.composite
def clauses(draw, variables):
    term = st.one_of(st.sampled_from(variables), st.sampled_from(variables),
                     st.sampled_from(GROUND))
    atoms = draw(
        st.lists(
            st.sampled_from(sorted(ARITY)).flatmap(
                lambda name: st.tuples(st.just(name), st.tuples(*[term] * ARITY[name]))
            ),
            min_size=1,
            max_size=4,
        )
    )
    marked = st.lists(st.sampled_from(variables), max_size=3, unique=True)
    return PreparedClause(
        [RelationalAtom(name, terms) for name, terms in atoms], draw(marked), draw(marked)
    )


@settings(max_examples=400, deadline=None)
@given(clauses(PATTERN_VARS), clauses(TARGET_VARS), st.data())
def test_dominance_failing_means_no_homomorphism(pattern, target, data):
    variables = sorted({t for a in pattern.atoms for t in a.terms
                        if isinstance(t, Variable)}, key=repr)
    pre_bound = data.draw(st.lists(st.sampled_from(variables), unique=True)
                          if variables else st.just([]))
    images = TARGET_VARS + GROUND
    fixed = {var: data.draw(st.sampled_from(images)) for var in pre_bound}
    check = condition_check(pattern.null_vars, pattern.nonnull_vars, target)
    found = find_homomorphism(pattern.atoms, target, fixed=fixed, var_check=check)
    assert found == find_homomorphism(
        pattern.atoms, list(reversed(target.atoms)), fixed=fixed, var_check=check
    )
    marks = pattern_marks(pattern.atoms, pattern.null_vars, pattern.nonnull_vars, fixed)
    if not dominated(marks, target):
        assert found is None


# ---------------------------------------------------------------------------
# Mark dominance on the pairs stage 1 and the optimizer compare.


def _old_condition_check(pattern, target):
    def check(var, image):
        if var in pattern.null_vars:
            return image in target.null_vars
        if var in pattern.nonnull_vars:
            return image in target.nonnull_vars
        return True

    return check


def searched_subsumes(small, big) -> bool:
    """Both embeddings of :func:`~repro.core.pruning.subsumes`, searched."""
    for side in ("source", "target"):
        fixed = _binding_fixed_pairs(small, big, side)
        if fixed is None:
            return False
        pattern = getattr(small, f"{side}_tableau")
        target = getattr(big, f"{side}_tableau")
        check = _old_condition_check(pattern, target)
        if find_homomorphism(pattern.atoms, target.atoms, fixed, check) is None:
            return False
    return True


STAGE1_PROBLEMS = [
    *(f"chain-{depth}" for depth in (2, 4, 6)),
    *(f"wide-{width}" for width in (2, 4)),
    *(f"seed-{seed}" for seed in range(0, 200, 7)),
]


def problem(name: str):
    kind, _, number = name.partition("-")
    if kind == "chain":
        return chain_problem(int(number))
    if kind == "wide":
        return wide_problem(int(number))
    return generate_scenario(int(number), DEFAULT).problem


@pytest.mark.parametrize("name", STAGE1_PROBLEMS)
def test_skipped_subsumption_and_rule_pairs_are_rejected_by_the_search(name):
    system = MappingSystem(problem(name))
    generation = system.schema_mapping_result().report
    prepared = PreparedTableaux()
    skipped = 0
    for small in generation.candidates:
        for big in generation.candidates:
            if small is big or small.covered != big.covered:
                continue
            if not prepared.may_subsume(small, big):
                skipped += 1
                assert not searched_subsumes(small, big), (small.name, big.name)
    rules = system.query_result().unoptimized.rules
    for general in rules:
        pattern = pattern_marks(
            prepared_rule(general).atoms, general.null_vars, general.nonnull_vars
        )
        for specific in rules:
            if general.head_relation != specific.head_relation:
                continue
            if not dominated(pattern, prepared_rule(specific)):
                skipped += 1
                assert not subsumes_rule(general, specific), (general, specific)
    if name.startswith("chain"):
        assert skipped  # the chain's null / non-null siblings never embed


# ---------------------------------------------------------------------------
# Key-path clash.


def assert_clashes_are_contradictions(checker, pairs) -> int:
    clashes = 0
    for left, right in pairs:
        text = checker.clash(left, right)
        if text is not None:
            clashes += 1
            assert text == NULL_CLASH
            closure, _ = checker.pair(left, right)
            assert closure.contradiction == text, (
                checker.mappings[left],
                checker.mappings[right],
            )
    return clashes


@st.composite
def keyed_mappings(draw):
    """Two to four mappings over one variable-only premise, keyed by an A row.

    Such premises are the ones whose key paths decide anything: each
    consequent's key is the key of the premise's first atom, and the
    mappings differ in their null / non-null conditions and values.
    """
    variables = [Variable(f"y{i}") for i in range(5)]
    var = st.sampled_from(variables)
    rows = draw(
        st.lists(
            st.sampled_from(["A", "B"]).flatmap(
                lambda name: st.tuples(st.just(name), st.tuples(var, var, var))
            ),
            max_size=3,
        )
    )
    atoms = (RelationalAtom("A", draw(st.tuples(var, var, var))),) + tuple(
        RelationalAtom(name, terms) for name, terms in rows
    )
    used = sorted({t for a in atoms for t in a.terms}, key=repr)
    # Conditions mostly fall on the nullable third positions, so that
    # siblings differ in null, non-null and no condition there.
    nullable = sorted({a.terms[2] for a in atoms}, key=repr)
    conditioned = st.lists(
        st.sampled_from(nullable) | st.sampled_from(used), max_size=2, unique=True
    )
    value = st.sampled_from(used)
    return [
        UnitaryMapping(
            premise=Premise(
                atoms=atoms,
                null_vars=tuple(draw(conditioned)),
                nonnull_vars=tuple(draw(conditioned)),
            ),
            consequent=RelationalAtom("T", (atoms[0].terms[0], draw(value), draw(value))),
            origin=f"m{index}",
            name=f"m{index}.1",
        )
        for index in range(draw(st.integers(2, 4)))
    ]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_clash_means_contradiction_on_random_premises(data):
    if data.draw(st.booleans()):
        mappings = data.draw(keyed_mappings())
    else:
        mappings = [data.draw(unitary(index)) for index in range(data.draw(st.integers(2, 4)))]
    checker = PairChecker(mappings, SOURCE, TARGET)
    assert_clashes_are_contradictions(checker, same_relation_pairs(mappings))


@pytest.mark.parametrize(
    "seed, larger",
    [(seed, False) for seed in range(0, 200, 5)] + [(seed, True) for seed in range(10)],
)
def test_clash_means_contradiction_on_generated_mappings(seed, larger):
    mappings, source_schema, target_schema = unitary_mappings(seed, larger)
    checker = PairChecker(mappings, source_schema, target_schema)
    assert_clashes_are_contradictions(checker, same_relation_pairs(mappings))


def test_clash_means_contradiction_on_chain_8():
    stage2 = MappingSystem(chain_problem(8)).query_result()
    source_schema = stage2.program.source_schema
    checker = PairChecker(stage2.unitary, source_schema, stage2.program.target_schema)
    pairs = [(i, j) for i, j in same_relation_pairs(stage2.unitary) if i < j]
    # Of the 1 584 cross pairs the conflict search probes, the 1 254 whose
    # premises took different null / non-null branches clash.
    assert len(pairs) == 1584
    assert assert_clashes_are_contradictions(checker, pairs) == 1254


@pytest.mark.parametrize("seed", range(0, 200, 9))
def test_clash_means_contradiction_on_certifier_rule_pairs(seed):
    program = compiled_program(seed, False, NOVEL)
    for relation in program.target_schema:
        rules = program.rules_for(relation.name)
        checker = PairChecker(
            [rule_clause(rule) for rule in rules],
            program.source_schema,
            program.target_schema,
        )
        pairs = [(i, j) for i in range(len(rules)) for j in range(len(rules))]
        assert_clashes_are_contradictions(checker, pairs)


# ---------------------------------------------------------------------------
# The coverage memo.


@lru_cache(maxsize=None)
def tableaux(name: str):
    p = problem(name)
    return (
        p,
        logical_relations(p.source_schema),
        logical_relations(p.target_schema),
    )


MEMO_PROBLEMS = [
    *(f"chain-{depth}" for depth in range(2, 7)),
    *(f"wide-{width}" for width in range(2, 9)),
    *(f"seed-{seed}" for seed in range(50)),
]


@pytest.mark.parametrize("name", MEMO_PROBLEMS)
def test_memoized_coverage_equals_fresh_coverage(name):
    p, sources, targets = tableaux(name)
    correspondences = p.correspondences
    memo = candidates._CoverageMemo(correspondences)

    def fresh(side, tableau):
        return [coverage_mappings(getattr(c, side), tableau) for c in correspondences]

    source_cms = [memo.coverage("source", t) for t in sources]
    target_cms = [memo.coverage("target", t) for t in targets]
    assert source_cms == [fresh("source", t) for t in sources]
    assert target_cms == [fresh("target", t) for t in targets]
    for source in source_cms:
        for target in target_cms:
            assert memo.analyses(source, target) == [
                analyse_correspondence(c, s, t)
                for c, s, t in zip(correspondences, source, target)
            ]


def coverage_counts(run) -> dict[str, int]:
    tracer = Tracer()
    with use_tracer(tracer):
        run()
    return {
        name: value
        for name, value in tracer.counters.items()
        if name.startswith("coverage.")
    }


@pytest.mark.parametrize("name", ["chain-4", "wide-6", "seed-3", "seed-17"])
def test_memo_hits_replay_the_coverage_counts(name):
    """The counts of analysing each side once per tableau and each
    correspondence once per skeleton, which the memo's hits skip."""
    p, sources, targets = tableaux(name)
    correspondences = p.correspondences

    def fresh():
        source_cms = [[coverage_mappings(c.source, s) for c in correspondences]
                      for s in sources]
        target_cms = [[coverage_mappings(c.target, t) for c in correspondences]
                      for t in targets]
        for source in source_cms:
            for target in target_cms:
                for c, s, t in zip(correspondences, source, target):
                    analyse_correspondence(c, s, t)

    def memoized():
        candidates.generate_candidates(sources, targets, correspondences)

    assert coverage_counts(memoized) == coverage_counts(fresh)


def test_chain_8_skips_every_search_its_null_pattern_rules_out():
    """Chain-8's counts, pinned: the null / non-null siblings of its
    modified chase never embed into one another and never share a key."""
    tracer = Tracer()
    with use_tracer(tracer):
        MappingSystem(chain_problem(8)).query_result()
    counters = tracer.counters
    assert counters["signature.dominance_skips"] == 1440  # 660 stage 1, 780 rules
    assert counters["signature.clash_skips"] == 1254
    assert counters["satisfiability.checks"] == 3453
    assert counters["functionality.checks"] == 165
