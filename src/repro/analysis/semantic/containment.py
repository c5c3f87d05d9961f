"""Chase-based containment of conjunctive queries with Skolem terms.

The classical result (Chandra–Merlin, extended to data exchange by Calì &
Torlone, "Containment of Schema Mappings for Data Exchange"): ``Q1 ⊆ Q2``
iff there is a homomorphism from ``Q2``'s body into the *canonical instance*
of ``Q1`` — ``Q1``'s body with every variable frozen into a distinct fresh
constant — that maps ``Q2``'s head onto ``Q1``'s frozen head.

This module implements that test for the conjunctive queries this code base
actually produces: partial-tableau queries (§5), Datalog rules with Skolem
functor heads and safe negation (§6), and unitary mappings.  Extensions
beyond the textbook case are handled *conservatively* — a ``None`` answer
means "not provably contained", never "provably not contained" — so every
positive answer is a sound certificate:

* null / non-null conditions freeze into marks on the canonical constants;
  a condition of the candidate container must map onto a compatibly marked
  value (cf. the condition-aware embeddings of :mod:`repro.core.pruning`);
* equalities are internalized by the congruence closure of
  :class:`~repro.logic.satisfiability.EgdClosure` before freezing (no source
  FDs: the query is read on its own); equalities involving a Skolem term
  stay residual, because lowered SQL can equate a column with an invented
  value, which the closure would read as a contradiction.  The container's
  equalities are verified per homomorphism;
* disequalities of the container must be *entailed* by the frozen instance
  (distinct ground constants, an explicit disequality of the contained
  query, a null vs. non-null split, or distinct Skolem functors — invented
  values from distinct functors have disjoint ranges, §6);
* negated atoms are compared as opaque subqueries: every negation required
  by the container must already be required (under the homomorphism) by the
  contained query;
* an unsatisfiable contained query (contradictory conditions) is contained
  in everything — the witness is marked ``vacuous``.

Canonical instances are memoized per query object.  Refutations are cached
under frozen structural signatures, so they serve every renaming; a witness
names the asked queries' own variables, so it only serves those variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ...datalog.program import Rule
from ...logic.atoms import Disequality, Equality, NegatedPremise, RelationalAtom
from ...logic.mappings import LogicalMapping, UnitaryMapping
from ...logic.satisfiability import (
    EgdClosure,
    FrozenValue,
    _terms_agree,
    bind_structurally,
    conditioned_homomorphisms,
    conditions_hold,
    diseq_key,
)
from ...logic.tableau import PartialTableau
from ...logic.terms import SkolemTerm, Term, Variable, term_variables
from ...obs import count

#: ``(null_vars, nonnull_vars)`` conditions on a mapping's consequent
#: variables (see :meth:`ContainmentEngine.mapping_implies`).
ConsequentConditions = tuple[frozenset[Variable], frozenset[Variable]]

_NO_CONDITIONS: ConsequentConditions = (frozenset(), frozenset())


@dataclass(frozen=True)
class Witness:
    """A containment certificate: the homomorphism, rendered.

    ``kind`` is ``"homomorphism"`` for the standard chase witness,
    ``"vacuous"`` when the contained query is unsatisfiable, and ``"chase"``
    for mapping-implication witnesses (premise images plus consequent
    embedding).
    """

    kind: str
    mapping: tuple[tuple[str, str], ...] = ()

    @classmethod
    def of(cls, kind: str, theta: Mapping[Variable, Term]) -> "Witness":
        """The witness of one match, its bindings in variable order."""
        return cls(
            kind,
            tuple(
                (repr(var), repr(image))
                for var, image in sorted(theta.items(), key=lambda item: item[0].index)
            ),
        )

    def render(self) -> str:
        if self.kind == "vacuous":
            return "vacuous (unsatisfiable premise)"
        inner = ", ".join(f"{var} -> {image}" for var, image in self.mapping)
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"Witness({self.kind}: {self.render()})"


@dataclass
class ConjunctiveQuery:
    """A conjunctive query ``head_label(head) ← atoms, conditions, ¬negated``.

    ``head`` terms may be variables, constants, ``null`` or Skolem terms;
    ``negated`` atoms are treated as opaque subquery references (two queries
    agree on a negation iff the atoms coincide under the homomorphism).
    """

    head_label: str
    head: tuple[Term, ...]
    atoms: tuple[RelationalAtom, ...]
    null_vars: frozenset[Variable] = frozenset()
    nonnull_vars: frozenset[Variable] = frozenset()
    equalities: tuple[Equality, ...] = ()
    disequalities: tuple[Disequality, ...] = ()
    negated: tuple[RelationalAtom, ...] = ()

    _canonical: "CanonicalInstance | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _signature: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _naming: tuple[Variable, ...] = field(
        default=(), init=False, repr=False, compare=False
    )

    def variables(self) -> list[Variable]:
        terms: list[Term] = [t for atom in self.atoms for t in atom.terms]
        terms.extend(self.head)
        return term_variables(terms)

    # -- structural signature (cache key) ---------------------------------

    def signature(self) -> tuple:
        """Canonical encoding identifying the query up to variable renaming."""
        if self._signature is not None:
            return self._signature
        var_ids: dict[Variable, int] = {}

        def encode(term: Term) -> object:
            if isinstance(term, Variable):
                if term not in var_ids:
                    var_ids[term] = len(var_ids)
                marks = (term in self.null_vars, term in self.nonnull_vars)
                return ("v", var_ids[term], marks)
            if isinstance(term, SkolemTerm):
                return ("f", term.functor, tuple(encode(a) for a in term.args))
            return ("t", repr(term))

        sig = (
            self.head_label,
            tuple(encode(t) for t in self.head),
            tuple(
                (a.relation, tuple(encode(t) for t in a.terms)) for a in self.atoms
            ),
            tuple(
                sorted(
                    repr((encode(e.left), encode(e.right)))
                    for e in self.equalities
                )
            ),
            tuple(
                sorted(
                    repr(tuple(sorted((repr(encode(d.left)), repr(encode(d.right))))))
                    for d in self.disequalities
                )
            ),
            tuple(
                sorted(
                    repr((a.relation, tuple(encode(t) for t in a.terms)))
                    for a in self.negated
                )
            ),
        )
        self._signature = sig
        self._naming = tuple(var_ids)
        return sig

    def naming(self) -> tuple[Variable, ...]:
        """The variables in signature order (a witness names them)."""
        self.signature()
        return self._naming

    # -- canonical (frozen) instance --------------------------------------

    def freeze(self) -> "CanonicalInstance":
        """The memoized canonical instance of this query.

        The query's variables, atoms and conditions are loaded into an
        :class:`EgdClosure` without a schema, so no source FDs apply; the
        closure's classes become the canonical constants.  Equalities with a
        Skolem term stay residual (see the module docstring).
        """
        if self._canonical is None:
            closure = EgdClosure(schema=None)
            for var in self.variables():
                closure.find(var)
            closure.load(
                self.atoms,
                self.null_vars,
                self.nonnull_vars,
                (
                    eq
                    for eq in self.equalities
                    if not isinstance(eq.left, SkolemTerm)
                    and not isinstance(eq.right, SkolemTerm)
                ),
                self.disequalities,
            )
            closure.saturate()
            atoms, substitution = closure.freeze()
            self._canonical = CanonicalInstance(
                atoms=tuple(atoms),
                head=tuple(t.substitute(substitution) for t in self.head),
                diseq_pairs=frozenset(
                    diseq_key(
                        d.left.substitute(substitution),
                        d.right.substitute(substitution),
                    )
                    for d in self.disequalities
                ),
                negated=frozenset(a.substitute(substitution) for a in self.negated),
                substitution=substitution,
                unsatisfiable=closure.contradiction is not None,
            )
        return self._canonical


@dataclass
class CanonicalInstance:
    """The frozen body of a query: its canonical database.

    ``substitution`` maps each query variable to its frozen term;
    ``diseq_pairs`` holds the frozen disequalities (as sorted repr pairs)
    used for entailment checks.
    """

    atoms: tuple[RelationalAtom, ...]
    head: tuple[Term, ...]
    substitution: dict[Variable, Term]
    diseq_pairs: frozenset[tuple[str, str]]
    negated: frozenset[RelationalAtom]
    unsatisfiable: bool = False


# -- constructors ---------------------------------------------------------


def cq_from_tableau(tableau: PartialTableau) -> ConjunctiveQuery:
    """The query of a partial tableau: head = the root atom's terms.

    Containment of tableau queries is the paper's sub-tableau relation made
    semantic: rooted, so the root tuple's data flow is preserved.
    """
    return ConjunctiveQuery(
        head_label=f"tableau:{tableau.root_relation}",
        head=tuple(tableau.root_atom.terms),
        atoms=tuple(tableau.atoms),
        null_vars=frozenset(tableau.null_vars),
        nonnull_vars=frozenset(tableau.nonnull_vars),
    )


def cq_from_rule(rule: Rule) -> ConjunctiveQuery:
    """The query of a Datalog rule (head may hold Skolem terms and null)."""
    return ConjunctiveQuery(
        head_label=rule.head.relation,
        head=tuple(rule.head.terms),
        atoms=tuple(rule.body),
        null_vars=frozenset(rule.null_vars),
        nonnull_vars=frozenset(rule.nonnull_vars),
        equalities=tuple(rule.equalities),
        disequalities=tuple(rule.disequalities),
        negated=tuple(rule.negated),
    )


_NEGATION_IDS: dict[tuple, int] = {}


def _negation_pseudo_atom(negation: NegatedPremise) -> RelationalAtom:
    """Encode a negated subquery as an opaque pseudo-atom over its key.

    Two negations with the same structural signature get the same pseudo
    relation (mirroring how query generation shares one ``tmp`` relation),
    so the negation-as-subset check of the containment engine applies.
    """
    signature = negation.signature()
    number = _NEGATION_IDS.setdefault(signature, len(_NEGATION_IDS))
    return RelationalAtom(f"__neg{number}__", negation.correlated)


def cq_from_unitary(mapping: UnitaryMapping) -> ConjunctiveQuery:
    """The query of a unitary mapping: head = its single consequent atom."""
    premise = mapping.premise
    return ConjunctiveQuery(
        head_label=mapping.consequent.relation,
        head=tuple(mapping.consequent.terms),
        atoms=tuple(premise.atoms),
        null_vars=frozenset(premise.null_vars),
        nonnull_vars=frozenset(premise.nonnull_vars),
        equalities=tuple(premise.equalities),
        disequalities=tuple(premise.disequalities),
        negated=tuple(_negation_pseudo_atom(n) for n in premise.negated),
    )


# -- the engine -----------------------------------------------------------


class ContainmentEngine:
    """Containment / equivalence checks with a frozen-signature cache."""

    def __init__(self) -> None:
        self._cache: dict[tuple, Witness | None] = {}

    def cache_size(self) -> int:
        return len(self._cache)

    def contained_in(
        self, contained: ConjunctiveQuery, container: ConjunctiveQuery
    ) -> Witness | None:
        """A witness that ``contained ⊆ container``, or ``None``.

        ``None`` is conservative: containment could not be *proved*.
        """
        return self._cached(
            (contained, container), lambda: self._contained_in(contained, container)
        )

    def equivalent(
        self, left: ConjunctiveQuery, right: ConjunctiveQuery
    ) -> tuple[Witness, Witness] | None:
        """Witnesses for both directions, or ``None``."""
        forward = self.contained_in(left, right)
        if forward is None:
            return None
        backward = self.contained_in(right, left)
        if backward is None:
            return None
        return forward, backward

    # -- internals --------------------------------------------------------

    def _cached(self, queries: tuple[ConjunctiveQuery, ...], compute):
        """``compute()`` for the asked ``queries``, memoized: a refutation
        under their signatures, a witness under their namings too.  The key
        lengths keep containment (two queries) and implication (four) apart."""
        count("semantic.checks")
        verdict_key = tuple(query.signature() for query in queries)
        witness_key = (verdict_key, *(query.naming() for query in queries))
        for key in (verdict_key, witness_key):
            if key in self._cache:
                count("semantic.cache_hits")
                return self._cache[key]
        witness = compute()
        self._cache[verdict_key if witness is None else witness_key] = witness
        return witness

    def _contained_in(
        self, contained: ConjunctiveQuery, container: ConjunctiveQuery
    ) -> Witness | None:
        if contained.head_label != container.head_label:
            return None
        if len(contained.head) != len(container.head):
            return None
        frozen = contained.freeze()
        if frozen.unsatisfiable:
            count("semantic.vacuous")
            return Witness(kind="vacuous")
        fixed: dict[Variable, Term] = {}
        if not bind_structurally(container.head, frozen.head, fixed):
            return None
        for theta in conditioned_homomorphisms(
            container.atoms,
            frozen.atoms,
            container.null_vars,
            container.nonnull_vars,
            fixed,
        ):
            if self._verify(container, frozen, theta):
                return Witness.of("homomorphism", theta)
        return None

    @staticmethod
    def _verify(
        query: ConjunctiveQuery,
        frozen: CanonicalInstance,
        theta: Mapping[Variable, Term],
    ) -> bool:
        """Side conditions the raw homomorphism search does not cover.

        A premise query has no head, so for a tgd firing only its
        (dis)equalities and negations are checked.
        """
        return (
            conditions_hold(
                theta, query.equalities, query.disequalities, frozen.diseq_pairs
            )
            and all(atom.substitute(theta) in frozen.negated for atom in query.negated)
            and all(
                _terms_agree(pattern.substitute(theta), image)
                for pattern, image in zip(query.head, frozen.head)
            )
        )

    # -- mapping implication (the chase over tgds) -------------------------

    def mapping_implies(
        self,
        stronger: LogicalMapping | UnitaryMapping,
        weaker: LogicalMapping | UnitaryMapping,
        *,
        stronger_consequent_conditions: ConsequentConditions | None = None,
        weaker_consequent_conditions: ConsequentConditions | None = None,
    ) -> Witness | None:
        """A witness that ``stronger ⟹ weaker`` as s-t tgds, or ``None``.

        The Calì–Torlone check: freeze the weaker premise into its canonical
        database, fire the stronger mapping on it exhaustively (every
        condition-respecting homomorphism, inventing one fresh value per
        existential variable per firing), and look for the weaker consequent
        among the produced target atoms — with the weaker's own source
        variables held fixed at their frozen values.

        The two ``*_consequent_conditions`` are ``(null_vars, nonnull_vars)``
        pairs for consequent variables.  :class:`LogicalMapping` itself
        carries no consequent conditions (section 5.2 drops them at mapping
        generation), but candidate pruning happens *before* that and must
        not confuse a ``p = null`` variant with its non-null extension, so
        it passes the target-tableau conditions here.
        """
        strong_conditions = stronger_consequent_conditions or _NO_CONDITIONS
        weak_conditions = weaker_consequent_conditions or _NO_CONDITIONS
        weak_consequent = _consequent_atoms(weaker)
        strong_consequent = _consequent_atoms(stronger)
        weak_cq = _premise_query(weaker)
        strong_cq = _premise_query(stronger)
        queries = (
            strong_cq,
            _consequent_query(strong_cq, strong_consequent, strong_conditions),
            weak_cq,
            _consequent_query(weak_cq, weak_consequent, weak_conditions),
        )
        return self._cached(
            queries,
            lambda: self._mapping_implies(
                strong_cq,
                strong_consequent,
                weak_cq,
                weak_consequent,
                strong_conditions,
                weak_conditions,
            ),
        )

    def _mapping_implies(
        self,
        strong_cq: ConjunctiveQuery,
        strong_consequent: tuple[RelationalAtom, ...],
        weak_cq: ConjunctiveQuery,
        weak_consequent: tuple[RelationalAtom, ...],
        strong_conditions: ConsequentConditions,
        weak_conditions: ConsequentConditions,
    ) -> Witness | None:
        frozen = weak_cq.freeze()
        if frozen.unsatisfiable:
            count("semantic.vacuous")
            return Witness(kind="vacuous")

        strong_source = set(
            term_variables(t for atom in strong_cq.atoms for t in atom.terms)
        )
        strong_null, _strong_nonnull = strong_conditions
        produced: list[RelationalAtom] = []
        for firing, theta in enumerate(
            conditioned_homomorphisms(
                strong_cq.atoms,
                frozen.atoms,
                strong_cq.null_vars,
                strong_cq.nonnull_vars,
            ),
            start=1,
        ):
            if not self._verify(strong_cq, frozen, theta):
                continue
            # Invent one fresh value per existential variable per firing.
            # A null-conditioned existential freezes to a null-like value;
            # everything else is a labeled (non-null) invented value.
            full = dict(theta)
            for atom in strong_consequent:
                for var in atom.variables():
                    if var not in strong_source and var not in full:
                        # (var.index, firing) is unique: no accidental fusion.
                        full[var] = FrozenValue(
                            var.index,
                            f"invent@{firing}:{var.name}",
                            null=var in strong_null,
                            nonnull=var not in strong_null,
                        )
            produced.extend(atom.substitute(full) for atom in strong_consequent)
        if not produced:
            return None

        weak_source = set(
            term_variables(t for atom in weak_cq.atoms for t in atom.terms)
        )
        fixed = {
            var: frozen.substitution[var]
            for atom in weak_consequent
            for var in atom.variables()
            if var in weak_source
        }
        weak_null, weak_nonnull = weak_conditions
        theta = next(
            conditioned_homomorphisms(
                weak_consequent, produced, weak_null, weak_nonnull, fixed
            ),
            None,
        )
        if theta is None:
            return None
        return Witness.of("chase", theta)


def _consequent_atoms(
    mapping: LogicalMapping | UnitaryMapping,
) -> tuple[RelationalAtom, ...]:
    consequent = mapping.consequent
    if isinstance(consequent, RelationalAtom):
        return (consequent,)
    return tuple(consequent)


def _premise_query(mapping: LogicalMapping | UnitaryMapping) -> ConjunctiveQuery:
    premise = mapping.premise
    return ConjunctiveQuery(
        head_label="premise",
        head=(),
        atoms=tuple(premise.atoms),
        null_vars=frozenset(premise.null_vars),
        nonnull_vars=frozenset(premise.nonnull_vars),
        equalities=tuple(premise.equalities),
        disequalities=tuple(premise.disequalities),
        negated=tuple(_negation_pseudo_atom(n) for n in premise.negated),
    )


def _consequent_query(
    premise_cq: ConjunctiveQuery,
    consequent: Sequence[RelationalAtom],
    conditions: ConsequentConditions,
) -> ConjunctiveQuery:
    """The premise with the consequent as head (a cache key, never asked)."""
    null_vars, nonnull_vars = conditions
    return ConjunctiveQuery(
        head_label="consequent",
        head=tuple(t for atom in consequent for t in atom.terms),
        atoms=premise_cq.atoms + tuple(consequent),
        null_vars=frozenset(null_vars),
        nonnull_vars=frozenset(nonnull_vars),
    )


# -- module-level default engine ------------------------------------------

_DEFAULT_ENGINE = ContainmentEngine()


def default_engine() -> ContainmentEngine:
    return _DEFAULT_ENGINE


def reset_default_engine() -> None:
    """Drop the shared cache (tests; long-lived processes with many schemas)."""
    global _DEFAULT_ENGINE
    _DEFAULT_ENGINE = ContainmentEngine()


def contained_in(
    contained: ConjunctiveQuery, container: ConjunctiveQuery
) -> Witness | None:
    return _DEFAULT_ENGINE.contained_in(contained, container)


def equivalent(
    left: ConjunctiveQuery, right: ConjunctiveQuery
) -> tuple[Witness, Witness] | None:
    return _DEFAULT_ENGINE.equivalent(left, right)


def mapping_implies(
    stronger: LogicalMapping | UnitaryMapping,
    weaker: LogicalMapping | UnitaryMapping,
    *,
    stronger_consequent_conditions: ConsequentConditions | None = None,
    weaker_consequent_conditions: ConsequentConditions | None = None,
) -> Witness | None:
    return _DEFAULT_ENGINE.mapping_implies(
        stronger,
        weaker,
        stronger_consequent_conditions=stronger_consequent_conditions,
        weaker_consequent_conditions=weaker_consequent_conditions,
    )
