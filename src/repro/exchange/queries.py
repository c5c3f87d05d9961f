"""Conjunctive queries over target instances and certain answers.

Target instances computed by a transformation contain incomplete values —
invented values (labeled nulls) and the unlabeled null.  For a conjunctive
query, the *certain answers* are those that hold in every possible completion
of the instance; for naive tables this is naive evaluation followed by
dropping answers that contain labeled nulls (labeled nulls join with
themselves during evaluation, but an answer mentioning one is not certain).
The unlabeled null is, in the paper's semantics, an ordinary value and stays.

This lets the repository demonstrate the *semantic* difference between the
basic and novel pipelines: both yield the same certain answers for queries
over the certain part of the data, while the basic pipeline's invented
tuples never leak into certain answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..datalog.engine import RowStore, _join
from ..logic.atoms import RelationalAtom
from ..logic.terms import Variable
from ..model.instance import Instance, Row
from ..model.values import is_labeled_null, is_null


@dataclass(frozen=True)
class ConjunctiveQuery:
    """``answer(head) ← body``, a select-project-join query."""

    head: tuple[Variable, ...]
    body: tuple[RelationalAtom, ...]
    null_vars: tuple[Variable, ...] = ()
    nonnull_vars: tuple[Variable, ...] = ()

    def __post_init__(self) -> None:
        bound = {v for atom in self.body for v in atom.variables()}
        for kind, variables in (
            ("head", self.head),
            ("condition", self.null_vars + self.nonnull_vars),
        ):
            for var in variables:
                if var not in bound:
                    raise ValueError(f"unsafe query: {kind} variable {var.name!r} unbound")

    def __repr__(self) -> str:
        head = ",".join(repr(v) for v in self.head)
        body = ", ".join(repr(a) for a in self.body)
        return f"({head}) <- {body}"


def evaluate_query(query: ConjunctiveQuery, instance: Instance) -> set[Row]:
    """All (naive) answers of the query over the instance."""
    store = RowStore()
    for name, relation in instance.relations.items():
        store.add_relation(name, relation.rows)
    answers: set[Row] = set()
    for bindings in _join(store, list(query.body), {}):
        if any(not is_null(bindings[v]) for v in query.null_vars):
            continue
        if any(is_null(bindings[v]) for v in query.nonnull_vars):
            continue
        answers.add(tuple(bindings[v] for v in query.head))
    return answers


def certain_answers(query: ConjunctiveQuery, instance: Instance) -> set[Row]:
    """Answers valid in every completion: naive answers without labeled nulls."""
    return {
        row
        for row in evaluate_query(query, instance)
        if not any(is_labeled_null(v) for v in row)
    }


def query(head: Sequence[Variable], *body: RelationalAtom, **conditions) -> ConjunctiveQuery:
    """Convenience constructor: ``query([x], R(x, y), nonnull_vars=[y])``."""
    return ConjunctiveQuery(
        head=tuple(head),
        body=tuple(body),
        null_vars=tuple(conditions.get("null_vars", ())),
        nonnull_vars=tuple(conditions.get("nonnull_vars", ())),
    )


_QUERY_ARROW = "<-"


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse ``"(x, y) <- R(x, z), S(z, y), z != null"`` into a query.

    Atom arguments are variable names; repeated names join.  The conditions
    ``v = null`` and ``v != null`` are supported after the atoms.
    """
    from ..errors import ParseError

    if _QUERY_ARROW not in text:
        raise ParseError(f"a query needs '{_QUERY_ARROW}': {text!r}")
    head_text, _, body_text = text.partition(_QUERY_ARROW)
    head_text = head_text.strip()
    if not (head_text.startswith("(") and head_text.endswith(")")):
        raise ParseError(f"query head must be parenthesized: {head_text!r}")
    variables: dict[str, Variable] = {}

    def var(name: str) -> Variable:
        name = name.strip()
        if not name:
            raise ParseError(f"empty variable in query {text!r}")
        if name not in variables:
            variables[name] = Variable(name)
        return variables[name]

    import re as _re

    atoms: list[RelationalAtom] = []
    null_vars: list[Variable] = []
    nonnull_vars: list[Variable] = []
    rest = body_text.strip()
    for atom_match in _re.finditer(r"([A-Za-z_]\w*)\s*\(([^()]*)\)", rest):
        relation, args = atom_match.groups()
        atoms.append(RelationalAtom(relation, [var(a) for a in args.split(",")]))
    without_atoms = _re.sub(r"[A-Za-z_]\w*\s*\([^()]*\)", "", rest)
    for piece in without_atoms.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if piece.endswith("!= null"):
            nonnull_vars.append(var(piece[: -len("!= null")]))
        elif piece.endswith("= null"):
            null_vars.append(var(piece[: -len("= null")]))
        else:
            raise ParseError(f"unrecognized query condition {piece!r}")
    if not atoms:
        raise ParseError(f"query has no body atoms: {text!r}")
    head_names = [n for n in head_text[1:-1].split(",") if n.strip()]
    try:
        return ConjunctiveQuery(
            head=tuple(var(name) for name in head_names),
            body=tuple(atoms),
            null_vars=tuple(null_vars),
            nonnull_vars=tuple(nonnull_vars),
        )
    except ValueError as error:  # an unsafe query
        raise ParseError(str(error)) from None
