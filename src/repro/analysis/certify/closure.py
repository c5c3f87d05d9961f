"""Rule bodies in the egd closure, and freezing for homomorphism searches.

The key certifier asks: can two firings of target rules agree on a target
key but disagree elsewhere?  The classical way to answer is to *chase* the
pair with the available equality-generating dependencies — here the source
key → row functional dependencies of §3.1 — after asserting the key
equalities, and look for either a contradiction (the firings can never
collide) or full row agreement (collisions always coincide).

The chase is :class:`repro.logic.satisfiability.EgdClosure`, the same
closure the functionality and key-conflict checks of Algorithm 4 use.  This
module loads Datalog rules into it (:func:`add_rule`), freezes its classes
for homomorphism searches (:func:`frozen`), and refutes negated premises
over the frozen combined body (:func:`negation_refutation`).  For the pair
analysis a :attr:`~repro.logic.satisfiability.EgdClosure.contradiction`
*is* the proof that the two firings can never share a key.
"""

from __future__ import annotations

from ...datalog.program import DatalogProgram, Rule
from ...logic.atoms import RelationalAtom
from ...logic.homomorphism import iter_homomorphisms
from ...logic.satisfiability import (
    EgdClosure,
    FrozenValue,
    _is_nonnull_like,
    _is_null_like,
    _terms_agree,
)
from ...logic.terms import Constant, SkolemTerm, Term, Variable


def add_rule(closure: EgdClosure, rule: Rule) -> None:
    """Load one rule's body atoms and conditions into the closure."""
    closure.load(
        rule.body,
        rule.null_vars,
        rule.nonnull_vars,
        rule.equalities,
        rule.disequalities,
    )


def frozen(closure: EgdClosure) -> tuple[list[RelationalAtom], dict[Variable, Term]]:
    """The closure's atoms with every class frozen to one canonical term.

    Pinned classes freeze to their constant; every other class becomes a
    :class:`FrozenValue` carrying its null / non-null mark, so condition
    checks during homomorphism searches stay local.
    """
    substitution: dict[Variable, Term] = {}
    frozen_roots: dict[Variable, Term] = {}
    for var in closure.variables():
        root = closure.find(var)
        if root not in frozen_roots:
            info = closure.info(root)
            if info.pin is not None:
                frozen_roots[root] = info.pin
            else:
                frozen_roots[root] = FrozenValue(
                    len(frozen_roots),
                    root.name,
                    null=info.null,
                    nonnull=info.nonnull,
                )
        substitution[var] = frozen_roots[root]
    return (
        [atom.substitute(substitution) for atom in closure.atoms],
        substitution,
    )


def rename_rule(rule: Rule) -> Rule:
    """A copy of ``rule`` over fresh variables (for self-pair analysis)."""
    mapping: dict[Variable, Term] = {}
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


def negation_refutation(
    closure: EgdClosure,
    rules: "tuple[Rule, ...] | list",
    program: DatalogProgram,
) -> str | None:
    """A proof that some ``not N(args)`` premise fails on the combined body.

    For every negated premise of the given rules, evaluate ``N`` over the
    frozen combined body: a condition-respecting homomorphism from one of
    ``N``'s defining rules whose head maps onto ``args`` shows ``N(args)``
    holds whenever the combined body does — contradicting the negation, so
    the combination never fires.  Returns the rendered proof, or ``None``.

    Sound because freezing only *instantiates* the combined body: anything
    derivable from the frozen atoms is derivable from every instance the
    body matches.  Defining rules with their own negations are skipped
    (conservative).
    """
    if closure.contradiction is not None:
        return None
    frozen_atoms, substitution = frozen(closure)
    for rule in rules:
        for negated in rule.negated:
            frozen_args = [t.substitute(substitution) for t in negated.terms]
            for defining in program.rules_for(negated.relation):
                if defining.negated:
                    continue  # nested negation: stay conservative
                fixed: dict[Variable, Term] = {}
                if not _bind_head(defining.head.terms, frozen_args, fixed):
                    continue
                witness = _conditioned_hom(defining, frozen_atoms, fixed)
                if witness is not None:
                    return (
                        f"¬{negated.relation}({', '.join(map(repr, negated.terms))})"
                        f" is contradicted: {negated.relation} is derivable "
                        f"from the combined bodies via "
                        f"{defining.head.relation} <- "
                        + ", ".join(repr(a) for a in defining.body)
                    )
    return None


def _bind_head(
    head_terms: "tuple[Term, ...]",
    frozen_args: "list[Term]",
    fixed: dict[Variable, Term],
) -> bool:
    """Structurally bind a defining rule's head onto frozen negation args."""
    if len(head_terms) != len(frozen_args):
        return False
    for pattern, image in zip(head_terms, frozen_args):
        if isinstance(pattern, Variable):
            bound = fixed.get(pattern)
            if bound is not None:
                if not _terms_agree(bound, image):
                    return False
            else:
                fixed[pattern] = image
        elif isinstance(pattern, SkolemTerm):
            if not isinstance(image, SkolemTerm):
                return False
            if pattern.functor != image.functor or len(pattern.args) != len(
                image.args
            ):
                return False
            if not _bind_head(tuple(pattern.args), list(image.args), fixed):
                return False
        elif not _terms_agree(pattern, image):
            return False
    return True


def _conditioned_hom(
    defining: Rule,
    frozen_atoms: "list[RelationalAtom]",
    fixed: dict[Variable, Term],
) -> dict | None:
    """A homomorphism from a defining rule's body respecting its conditions."""
    null_vars = set(defining.null_vars)
    nonnull_vars = set(defining.nonnull_vars)

    def var_check(var: Variable, image: Term) -> bool:
        if var in null_vars:
            return _is_null_like(image)
        if var in nonnull_vars:
            return _is_nonnull_like(image)
        return True

    for var, image in fixed.items():
        if not var_check(var, image):
            return None
    for theta in iter_homomorphisms(
        defining.body, frozen_atoms, fixed=fixed, var_check=var_check
    ):
        if all(
            _terms_agree(eq.left.substitute(theta), eq.right.substitute(theta))
            for eq in defining.equalities
        ) and all(
            _frozen_diseq(d.left.substitute(theta), d.right.substitute(theta))
            for d in defining.disequalities
        ):
            return theta
    return None


def _frozen_diseq(left: Term, right: Term) -> bool:
    """Is ``left != right`` guaranteed for all instantiations of the freeze?"""
    if isinstance(left, Constant) and isinstance(right, Constant):
        return left != right
    if (_is_null_like(left) and _is_nonnull_like(right)) or (
        _is_null_like(right) and _is_nonnull_like(left)
    ):
        return True
    if isinstance(left, SkolemTerm) and isinstance(right, SkolemTerm):
        return left.functor != right.functor
    return False
