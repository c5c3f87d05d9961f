"""Algorithm 4's pair checks, checked against the per-pair closures they replaced.

* :class:`~repro.core.functionality.PairChecker` closes each unitary
  mapping's premise once and its renamed-apart copy once, then joins two
  closed sides per pair.  The per-pair check it replaced (rename ``right``,
  load both premises into a fresh closure, equate the keys, saturate) is
  copied here as the oracle: both give the same differing positions on
  every same-relation pair, self pairs included, of the generator's
  DEFAULT seeds and of small larger-shape seeds, and on random premises
  with null conditions, equalities, disequalities and contradictions.
* :meth:`EgdClosure._saturate_once` finds key-equal atoms through a dict
  keyed by their normalized key terms.  The loop that tested every atom
  pair is copied here as the oracle: on random atom sets both reach a
  contradiction or neither does, and otherwise they prove the same terms
  equal.
* The key certifier asks the same question of target rules on the same
  checker (each rule as :func:`~repro.analysis.certify.closure.rule_clause`).
  Its old per-pair closure (rename the second rule, load both bodies,
  equate the key head terms, saturate) is copied here as the oracle: on
  every self pair and same-head pair of DEFAULT-seed programs (both
  algorithms) and of small larger-shape seeds, both find a contradiction
  or neither does, prove the same head positions equal and refute the
  same negated premise.
* One stage-2 run renames every unitary mapping at most once and loads
  each premise at most twice (as a left and as a right side); one certify
  run does the same for every rule.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.analysis.certify import certify_program
from repro.analysis.certify.closure import negation_refutation, rule_clause
from repro.core.functionality import PairChecker, rename_premise
from repro.core.pipeline import MappingSystem
from repro.core.query_generation import generate_queries, rewrite_to_unitary
from repro.core.schema_mapping import BASIC, NOVEL
from repro.core.skolem import ALL_SOURCE_OR_KEY_VARS, skolemize_schema_mapping
from repro.datalog.program import Rule
from repro.logic.atoms import Disequality, Equality, RelationalAtom
from repro.logic.mappings import Premise, UnitaryMapping
from repro.logic.satisfiability import EgdClosure
from repro.logic.terms import NULL_TERM, Constant, SkolemTerm, Variable
from repro.model.builder import SchemaBuilder
from repro.scenarios.generator import DEFAULT, GeneratorConfig, generate_scenario
from repro.scenarios.synthetic import chain_problem

# ---------------------------------------------------------------------------
# The replaced closures, as oracles.


class PairwiseClosure(EgdClosure):
    """The closure whose FD chase tests every pair of atoms."""

    def _saturate_once(self) -> bool:
        changed = False
        by_relation: dict[str, list[RelationalAtom]] = {}
        for atom in self.atoms:
            by_relation.setdefault(atom.relation, []).append(atom)
        for name, atoms in by_relation.items():
            rel = self._source_relation(name)
            if rel is None or not rel.key:
                continue
            key_positions = rel.key_positions()
            for i, first in enumerate(atoms):
                for second in atoms[i + 1:]:
                    if any(p >= len(first.terms) for p in key_positions):
                        continue
                    if all(
                        self.terms_equal(first.terms[p], second.terms[p])
                        for p in key_positions
                    ):
                        for a, b in zip(first.terms, second.terms):
                            if not self.terms_equal(a, b):
                                self.equate(a, b)
                                changed = True
                            if self.contradiction is not None:
                                return False
        return changed


def per_pair_differing_positions(left, right, source_schema, target_schema):
    """One fresh closure per pair: the check the pair checker replaced."""
    renamed, renaming = rename_premise(right.premise)
    relation = target_schema.relation(left.consequent.relation)
    key_positions = relation.key_positions()
    closure = PairwiseClosure(source_schema)
    for premise in (left.premise, renamed):
        closure.load(
            premise.atoms,
            premise.null_vars,
            premise.nonnull_vars,
            premise.equalities,
            premise.disequalities,
        )
    right_consequent = right.consequent.substitute(renaming)
    pairs = list(zip(left.consequent.terms, right_consequent.terms))
    for position in key_positions:
        closure.equate(*pairs[position])
    closure.saturate()
    for position, attribute in enumerate(relation.attributes):
        if position in key_positions:
            continue
        if closure.contradiction is None and not closure.terms_equal(*pairs[position]):
            yield (attribute.name, *pairs[position])


def rendered(positions):
    """Differing positions by attribute and term text (renamings are fresh)."""
    return [(attribute, repr(left), repr(right)) for attribute, left, right in positions]


def assert_checker_agrees(mappings, source_schema, target_schema, order):
    """One checker answers every same-relation pair like the oracle does."""
    checker = PairChecker(mappings, source_schema, target_schema)
    for i, j in order:
        expected = per_pair_differing_positions(
            mappings[i], mappings[j], source_schema, target_schema
        )
        assert rendered(checker.differing_positions(i, j)) == rendered(expected), (
            mappings[i],
            mappings[j],
        )


def same_relation_pairs(mappings):
    return [
        (i, j)
        for i, left in enumerate(mappings)
        for j, right in enumerate(mappings)
        if left.consequent.relation == right.consequent.relation
    ]


# ---------------------------------------------------------------------------
# Generated problems.

#: the larger generator shape of tests/larger_shape.py
LARGER = GeneratorConfig(
    source_relations=(4, 6),
    target_relations=(3, 5),
    payload_attributes=(2, 4),
)


@lru_cache(maxsize=None)
def unitary_mappings(seed: int, larger: bool):
    """Algorithm 4's unitary mappings of one generated problem."""
    problem = generate_scenario(seed, LARGER if larger else DEFAULT).problem
    schema_mapping = MappingSystem(problem).schema_mapping
    target_schema = schema_mapping.target_schema
    skolemized = skolemize_schema_mapping(
        list(schema_mapping),
        target_schema,
        strategy=ALL_SOURCE_OR_KEY_VARS,
        use_null_for_nullable=True,
    )
    return rewrite_to_unitary(skolemized), schema_mapping.source_schema, target_schema


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 199), data=st.data())
def test_checker_matches_per_pair_closures_on_default_seeds(seed, data):
    mappings, source_schema, target_schema = unitary_mappings(seed, False)
    order = data.draw(st.permutations(same_relation_pairs(mappings)))
    assert_checker_agrees(mappings, source_schema, target_schema, order)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 9), data=st.data())
def test_checker_matches_per_pair_closures_on_larger_shape(seed, data):
    mappings, source_schema, target_schema = unitary_mappings(seed, True)
    order = data.draw(st.permutations(same_relation_pairs(mappings)))
    assert_checker_agrees(mappings, source_schema, target_schema, order)


# ---------------------------------------------------------------------------
# Rule pairs of the key certifier.


def rename_rule(rule: Rule) -> Rule:
    """A copy of ``rule`` over fresh variables (the certifier's old renaming)."""
    mapping: dict[Variable, Variable] = {}
    for var in rule.body_variables():
        mapping.setdefault(var, Variable(var.name + "'"))
    for term in rule.head.terms:
        for var in term.variables():
            mapping.setdefault(var, Variable(var.name + "'"))
    return Rule(
        head=rule.head.substitute(mapping),
        body=tuple(a.substitute(mapping) for a in rule.body),
        negated=tuple(a.substitute(mapping) for a in rule.negated),
        null_vars=tuple(mapping.get(v, v) for v in rule.null_vars),
        nonnull_vars=tuple(mapping.get(v, v) for v in rule.nonnull_vars),
        equalities=tuple(e.substitute(mapping) for e in rule.equalities),
        disequalities=tuple(d.substitute(mapping) for d in rule.disequalities),
    )


def per_pair_rule_closure(program, first, second, key_positions):
    """One fresh closure per rule pair: the key certifier's old pair closure.

    Returns the closure and the renamed ``second``.
    """
    second = rename_rule(second)
    closure = EgdClosure(schema=program.source_schema)
    for rule in (first, second):
        closure.load(
            rule.body,
            rule.null_vars,
            rule.nonnull_vars,
            rule.equalities,
            rule.disequalities,
        )
    for position in key_positions:
        closure.equate(first.head.terms[position], second.head.terms[position])
    closure.saturate()
    return closure, second


@lru_cache(maxsize=None)
def compiled_program(seed: int, larger: bool, algorithm: str):
    """The program the certifier reads for one generated problem."""
    problem = generate_scenario(seed, LARGER if larger else DEFAULT).problem
    return MappingSystem(problem, algorithm=algorithm).transformation


def assert_rule_checker_agrees(program, data):
    """Per target relation, one checker over its rules answers every self
    pair and same-head pair like the per-pair closure does."""
    for relation in program.target_schema:
        rules = program.rules_for(relation.name)
        pairs = [(i, j) for i in range(len(rules)) for j in range(i, len(rules))]
        order = data.draw(st.permutations(pairs))
        checker = PairChecker(
            [rule_clause(rule) for rule in rules],
            program.source_schema,
            program.target_schema,
        )
        for i, j in order:
            closure, terms = checker.pair(i, j)
            negated = rules[i].negated + tuple(
                atom.substitute(checker.renaming(j)) for atom in rules[j].negated
            )
            expected, renamed = per_pair_rule_closure(
                program, rules[i], rules[j], relation.key_positions()
            )
            context = (rules[i], rules[j])
            assert (closure.contradiction is None) == (
                expected.contradiction is None
            ), context
            assert [closure.terms_equal(*pair) for pair in terms] == [
                expected.terms_equal(*pair)
                for pair in zip(rules[i].head.terms, renamed.head.terms)
            ], context
            assert negation_refutation(closure, negated, program) == (
                negation_refutation(
                    expected, rules[i].negated + renamed.negated, program
                )
            ), context


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 199),
    algorithm=st.sampled_from([NOVEL, BASIC]),
    data=st.data(),
)
def test_rule_checker_matches_per_pair_closures_on_default_seeds(
    seed, algorithm, data
):
    program = compiled_program(seed, False, algorithm)
    assert_rule_checker_agrees(program, data)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 9), data=st.data())
def test_rule_checker_matches_per_pair_closures_on_larger_shape(seed, data):
    assert_rule_checker_agrees(compiled_program(seed, True, NOVEL), data)


# ---------------------------------------------------------------------------
# Random premises and atom sets.

SOURCE = (
    SchemaBuilder("src")
    .relation("A", "k", "a", "b?")
    .relation("B", "k1", "k2", "c?", key=("k1", "k2"))
    .build()
)
TARGET = SchemaBuilder("tgt").relation("T", "t", "u", "v?").build()
ARITIES = {"A": 3, "B": 3, "Free": 2}  # "Free" is not a source relation


@st.composite
def premises(draw):
    """A premise over A and B with conditions on its own variables."""
    variables = [Variable(f"x{i}") for i in range(draw(st.integers(1, 5)))]
    ground = st.sampled_from([Constant("c1"), Constant("c2"), NULL_TERM])
    term = st.one_of(st.sampled_from(variables), ground)
    atoms = draw(
        st.lists(
            st.sampled_from(["A", "B"]).flatmap(
                lambda name: st.tuples(st.just(name), st.tuples(*[term] * 3))
            ),
            min_size=1,
            max_size=4,
        )
    )
    atoms = [RelationalAtom(name, terms) for name, terms in atoms]
    used = list(
        dict.fromkeys(t for a in atoms for t in a.terms if isinstance(t, Variable))
    )
    if not used:
        atoms.append(RelationalAtom("A", (variables[0], Constant("c1"), NULL_TERM)))
        used = [variables[0]]
    own = st.sampled_from(used)
    own_or_ground = st.one_of(own, ground)
    return Premise(
        atoms=tuple(atoms),
        null_vars=tuple(draw(st.lists(own, max_size=1, unique=True))),
        nonnull_vars=tuple(draw(st.lists(own, max_size=1, unique=True))),
        equalities=tuple(
            Equality(*pair)
            for pair in draw(st.lists(st.tuples(own, own_or_ground), max_size=2))
        ),
        disequalities=tuple(
            Disequality(*pair)
            for pair in draw(st.lists(st.tuples(own, own_or_ground), max_size=1))
        ),
    )


@st.composite
def unitary(draw, index):
    premise = draw(premises())
    used = premise.variables()
    value = st.one_of(
        st.sampled_from(used),
        st.sampled_from([Constant("c1"), NULL_TERM]),
        st.sampled_from(["f", "g"]).flatmap(
            lambda functor: st.sampled_from(used).map(
                lambda var: SkolemTerm(functor, [var])
            )
        ),
    )
    key = st.one_of(st.sampled_from(used), st.just(Constant("c1")))
    consequent = RelationalAtom("T", (draw(key), draw(value), draw(value)))
    return UnitaryMapping(
        premise=premise, consequent=consequent, origin=f"m{index}", name=f"m{index}.1"
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_checker_matches_per_pair_closures_on_random_premises(data):
    count = data.draw(st.integers(1, 3))
    mappings = [data.draw(unitary(index)) for index in range(count)]
    order = data.draw(st.permutations(same_relation_pairs(mappings)))
    assert_checker_agrees(mappings, SOURCE, TARGET, order)


@st.composite
def closure_inputs(draw):
    variables = [Variable(f"v{i}") for i in range(6)]
    var = st.sampled_from(variables)
    ground = st.sampled_from([Constant(0), Constant(1), NULL_TERM])
    term = st.one_of(var, var, ground)
    atoms = draw(
        st.lists(
            st.sampled_from(sorted(ARITIES)).flatmap(
                lambda name: st.tuples(
                    st.just(name), st.tuples(*[term] * ARITIES[name])
                )
            ),
            max_size=8,
        )
    )
    return (
        variables,
        [RelationalAtom(name, terms) for name, terms in atoms],
        draw(st.lists(var, max_size=2)),
        draw(st.lists(var, max_size=2)),
        [Equality(*pair) for pair in draw(st.lists(st.tuples(var, term), max_size=3))],
    )


@settings(max_examples=300, deadline=None)
@given(closure_inputs())
def test_dict_keyed_chase_agrees_with_the_pairwise_loop(inputs):
    variables, atoms, null_vars, nonnull_vars, equalities = inputs
    closures = []
    for cls in (EgdClosure, PairwiseClosure):
        closure = cls(SOURCE)
        closure.load(atoms, null_vars, nonnull_vars, equalities)
        closure.saturate()
        closures.append(closure)
    keyed, pairwise = closures
    assert (keyed.contradiction is None) == (pairwise.contradiction is None)
    if keyed.contradiction is not None:
        return
    terms = variables + [Constant(0), Constant(1), NULL_TERM]
    for left in terms:
        for right in terms:
            assert keyed.terms_equal(left, right) == pairwise.terms_equal(left, right)


# ---------------------------------------------------------------------------
# Work done by one stage-2 run.


def assert_renamed_and_loaded_once(premises, renamed, loaded):
    """Each clause renamed at most once, each body loaded at most twice.

    ``premises`` holds one premise per clause of the run; sibling clauses
    may share one premise object (and two rules one body tuple), so counts
    are per object, bounded by the number of clauses sharing it.  Each
    clause's body loads once as a left side, its renamed copy once as a
    right side; a run whose pairs all clash on their key paths joins none,
    so it may rename nothing.
    """
    clauses = Counter(id(premise.atoms) for premise in premises)
    renames = Counter(id(original.atoms) for original, _ in renamed)
    assert loaded and set(renames) <= set(clauses)
    assert all(renames[atoms] <= clauses[atoms] for atoms in renames), renames
    allowed = clauses + Counter(id(copy.atoms) for _, copy in renamed)
    loads = Counter(id(atoms) for atoms in loaded)
    assert set(loads) <= set(allowed)
    assert all(loads[atoms] <= allowed[atoms] for atoms in loads), loads
    assert sum(loads.values()) <= 2 * len(premises)


def test_one_stage2_run_renames_and_loads_each_mapping_once(monkeypatch):
    """One stage-2 run on chain-8, and one certify run on DEFAULT seed 106
    (whose key pass checks 4 152 rule pairs), rename each clause at most
    once and load each premise or rule body at most twice."""
    import repro.core.functionality as functionality

    schema_mapping = MappingSystem(chain_problem(8)).schema_mapping
    program = MappingSystem(generate_scenario(106, DEFAULT).problem).transformation
    # The recorded objects stay alive, so their ids stay unique.
    renamed: list[tuple[Premise, Premise]] = []
    loaded: list[tuple] = []

    real_rename = functionality.rename_premise
    real_load = EgdClosure.load

    def counted_rename(premise):
        copy, renaming = real_rename(premise)
        renamed.append((premise, copy))
        return copy, renaming

    def counted_load(self, atoms, *args, **kwargs):
        loaded.append(atoms)
        return real_load(self, atoms, *args, **kwargs)

    monkeypatch.setattr(functionality, "rename_premise", counted_rename)
    monkeypatch.setattr(EgdClosure, "load", counted_load)

    unitary = generate_queries(schema_mapping).unitary
    assert renamed  # the functionality check joins every self pair
    assert_renamed_and_loaded_once(
        [mapping.premise for mapping in unitary], renamed, loaded
    )

    renamed.clear()
    loaded.clear()
    certify_program(program)
    assert_renamed_and_loaded_once(
        [rule_clause(rule).premise for rule in program.rules], renamed, loaded
    )
