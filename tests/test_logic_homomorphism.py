"""Tests for homomorphisms between atom sets."""

import itertools

from repro.logic.atoms import RelationalAtom
from repro.logic.homomorphism import find_homomorphism, iter_homomorphisms
from repro.logic.terms import Constant, Variable


def V(name):
    return Variable(name)


def test_identity_embedding():
    x = V("x")
    atoms = [RelationalAtom("R", (x,))]
    assignment = find_homomorphism(atoms, atoms)
    assert assignment == {x: x}


def test_embedding_into_superset():
    x = V("x")
    a, b = V("a"), V("b")
    pattern = [RelationalAtom("P", (x,))]
    target = [RelationalAtom("Q", (a,)), RelationalAtom("P", (b,))]
    assignment = find_homomorphism(pattern, target)
    assert assignment == {x: b}


def test_no_embedding_when_relation_missing():
    assert find_homomorphism(
        [RelationalAtom("P", (V("x"),))],
        [RelationalAtom("Q", (V("a"),))],
    ) is None


def test_join_variable_consistency():
    x, y = V("x"), V("y")
    a, b, c = V("a"), V("b"), V("c")
    # Pattern shares x between both atoms; target does not share.
    pattern = [RelationalAtom("R", (x, y)), RelationalAtom("S", (x,))]
    disconnected = [RelationalAtom("R", (a, b)), RelationalAtom("S", (c,))]
    assert find_homomorphism(pattern, disconnected) is None
    connected = [RelationalAtom("R", (a, b)), RelationalAtom("S", (a,))]
    assignment = find_homomorphism(pattern, connected)
    assert assignment == {x: a, y: b}


def test_constants_must_match():
    pattern = [RelationalAtom("R", (Constant("c"),))]
    assert find_homomorphism(pattern, [RelationalAtom("R", (Constant("c"),))]) == {}
    assert find_homomorphism(pattern, [RelationalAtom("R", (Constant("d"),))]) is None


def test_fixed_bindings_respected():
    x = V("x")
    a, b = V("a"), V("b")
    pattern = [RelationalAtom("R", (x,))]
    target = [RelationalAtom("R", (a,)), RelationalAtom("R", (b,))]
    assignment = find_homomorphism(pattern, target, fixed={x: b})
    assert assignment == {x: b}
    # An impossible fixed binding blocks the embedding.
    z = V("z")
    assert find_homomorphism(pattern, target, fixed={x: z}) is None


def test_var_check_vetoes_bindings():
    x = V("x")
    a, b = V("a"), V("b")
    pattern = [RelationalAtom("R", (x,))]
    target = [RelationalAtom("R", (a,)), RelationalAtom("R", (b,))]
    assignment = find_homomorphism(
        pattern, target, var_check=lambda v, t: t is b
    )
    assert assignment == {x: b}
    assert find_homomorphism(pattern, target, var_check=lambda v, t: False) is None


def test_backtracking_over_choices():
    x, y = V("x"), V("y")
    a, b = V("a"), V("b")
    pattern = [RelationalAtom("R", (x, y)), RelationalAtom("S", (y,))]
    target = [
        RelationalAtom("R", (a, a)),
        RelationalAtom("R", (a, b)),
        RelationalAtom("S", (b,)),
    ]
    assignment = find_homomorphism(pattern, target)
    assert assignment == {x: a, y: b}


def test_duplicate_variable_in_pattern_atom():
    x = V("x")
    a, b = V("a"), V("b")
    pattern = [RelationalAtom("R", (x, x))]
    assert find_homomorphism(pattern, [RelationalAtom("R", (a, b))]) is None
    assert find_homomorphism(pattern, [RelationalAtom("R", (a, a))]) == {x: a}


def test_arity_mismatch():
    assert find_homomorphism(
        [RelationalAtom("R", (V("x"),))],
        [RelationalAtom("R", (V("a"), V("b")))],
    ) is None


def test_iter_homomorphisms_enumerates_all():
    x = V("x")
    a, b, c = Constant("a"), Constant("b"), Constant("c")
    pattern = [RelationalAtom("R", (x,))]
    target = [RelationalAtom("R", (t,)) for t in (a, b, c)]
    images = [assignment[x] for assignment in iter_homomorphisms(pattern, target)]
    assert sorted(images, key=repr) == [a, b, c]


def test_witness_is_independent_of_target_order():
    """The canonical candidate ordering makes the first witness stable."""
    x, y = V("x"), V("y")
    pattern = [RelationalAtom("R", (x, y)), RelationalAtom("S", (y,))]
    atoms = [
        RelationalAtom("R", (Constant("a"), Constant("b"))),
        RelationalAtom("R", (Constant("c"), Constant("d"))),
        RelationalAtom("S", (Constant("b"),)),
        RelationalAtom("S", (Constant("d"),)),
    ]
    witnesses = {
        tuple(sorted(find_homomorphism(pattern, list(perm)).items(),
                     key=lambda item: item[0].name))
        for perm in itertools.permutations(atoms)
    }
    assert len(witnesses) == 1


def test_enumeration_order_is_deterministic():
    x = V("x")
    pattern = [RelationalAtom("R", (x,))]
    atoms = [RelationalAtom("R", (Constant(f"c{i}"),)) for i in range(4)]
    expected = [a[x] for a in iter_homomorphisms(pattern, atoms)]
    for perm in itertools.permutations(atoms):
        got = [a[x] for a in iter_homomorphisms(pattern, list(perm))]
        assert got == expected


def test_constant_prefilter_prunes_candidates():
    """Targets that clash on constants never enter the backtracking search."""
    x = V("x")
    pattern = [RelationalAtom("R", (Constant("k"), x))]
    target = [RelationalAtom("R", (Constant(f"n{i}"), Constant("v"))) for i in range(50)]
    target.append(RelationalAtom("R", (Constant("k"), Constant("hit"))))
    vetoed: list = []

    def check(var, term):
        vetoed.append(term)
        return True

    assignment = find_homomorphism(pattern, target, var_check=check)
    assert assignment == {x: Constant("hit")}
    # Only the single compatible atom was ever offered to var_check.
    assert vetoed == [Constant("hit")]


def test_repeated_variable_prefilter():
    x = V("x")
    pattern = [RelationalAtom("R", (x, x))]
    target = [
        RelationalAtom("R", (Constant("a"), Constant("b"))),
        RelationalAtom("R", (Constant("c"), Constant("c"))),
    ]
    assert find_homomorphism(pattern, target) == {x: Constant("c")}


def test_fixed_bindings_feed_the_prefilter():
    x, y = V("x"), V("y")
    pattern = [RelationalAtom("R", (x, y))]
    target = [
        RelationalAtom("R", (Constant("a"), Constant("b"))),
        RelationalAtom("R", (Constant("c"), Constant("d"))),
    ]
    assignment = find_homomorphism(pattern, target, fixed={x: Constant("c")})
    assert assignment == {x: Constant("c"), y: Constant("d")}
