"""Logical relation generation: the standard chase and the modified chase.

Each base relation of a schema is chased into its *logical relations*
(tableaux).  Two procedures are provided:

* :func:`standard_chase` — the baseline of Clio [14, 16]: ignore nullability,
  traverse every foreign key; each base relation yields exactly one tableau.
* :func:`modified_chase` — the paper's procedure (section 5.1) with three
  rules:

  - **null rule**: a nullable attribute with no condition splits the partial
    tableau into two, one with ``A = null`` and one with ``A ≠ null``;
  - **ind rule**: a foreign key is traversed only if its attribute is
    mandatory or carries a non-null condition, and only if the referenced
    atom is not already present;
  - **fd rule**: two atoms of one relation agreeing on the key are unified
    (it cannot fire during generation from a single base relation, because
    every traversal introduces fresh variables, but it is part of the
    procedure and is exercised by the satisfiability engine).

Termination is guaranteed by weak acyclicity of the foreign keys, which
:func:`logical_relations` checks up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..logic.atoms import RelationalAtom
from ..logic.tableau import NONNULL, NULL, PartialTableau, Path, build_relation_index
from ..logic.terms import Variable, VariableFactory
from ..model.graph import check_weak_acyclicity
from ..model.schema import Schema
from ..obs import count, span

#: Chase modes.
STANDARD = "standard"
MODIFIED = "modified"


@dataclass
class _ChaseState:
    """A partially built tableau during the (possibly branching) chase."""

    atoms: list[RelationalAtom] = field(default_factory=list)
    paths: list[Path] = field(default_factory=list)
    parents: list[tuple[int, str] | None] = field(default_factory=list)
    null_vars: list[Variable] = field(default_factory=list)
    nonnull_vars: list[Variable] = field(default_factory=list)
    decisions: dict[tuple[Path, str], str] = field(default_factory=dict)
    #: queue of (atom index, attribute) pairs still to be examined
    pending: list[tuple[int, str]] = field(default_factory=list)

    def clone(self) -> "_ChaseState":
        return _ChaseState(
            atoms=list(self.atoms),
            paths=list(self.paths),
            parents=list(self.parents),
            null_vars=list(self.null_vars),
            nonnull_vars=list(self.nonnull_vars),
            decisions=dict(self.decisions),
            pending=list(self.pending),
        )


def _new_atom(
    schema: Schema,
    state: _ChaseState,
    relation: str,
    path: Path,
    parent: tuple[int, str] | None,
    factory: VariableFactory,
    key_term: Variable | None,
) -> int:
    """Append a fresh atom for ``relation``; reuse ``key_term`` for its key."""
    rel = schema.relation(relation)
    terms: list[Variable] = []
    for attribute in rel.attribute_names:
        if key_term is not None and attribute == rel.key[0]:
            terms.append(key_term)
        else:
            terms.append(factory.fresh_for_attribute(attribute))
    index = len(state.atoms)
    state.atoms.append(RelationalAtom(relation, terms))
    state.paths.append(path)
    state.parents.append(parent)
    for attribute in rel.attribute_names:
        state.pending.append((index, attribute))
    return index


def _has_atom_with_key(schema: Schema, state: _ChaseState, relation: str, term) -> bool:
    """ind-rule side condition: an atom ``S(v)`` with ``v.key = term`` already exists."""
    rel = schema.relation(relation)
    key_position = rel.position(rel.key[0])
    for atom in state.atoms:
        if atom.relation == relation and atom.terms[key_position] is term:
            return True
    return False


def chase_relation(
    schema: Schema, relation: str, mode: str = MODIFIED
) -> list[PartialTableau]:
    """Chase one base relation into its logical relations.

    In :data:`STANDARD` mode the result is a single ordinary tableau; in
    :data:`MODIFIED` mode it is the list of partial tableaux obtained by all
    null / non-null splits, with the null branch explored first (matching the
    paper's listing order, e.g. Example 5.1).
    """
    with span("chase.relation", relation=relation, mode=mode) as trace:
        tableaux = _chase_relation(schema, relation, mode)
        count("chase.tableaux", len(tableaux))
        trace.set(tableaux=len(tableaux))
        return tableaux


def _chase_relation(schema: Schema, relation: str, mode: str) -> list[PartialTableau]:
    factory = VariableFactory()
    start = _ChaseState()
    _new_atom(schema, start, relation, (), None, factory, key_term=None)

    finished: list[_ChaseState] = []
    stack = [start]
    while stack:
        state = stack.pop()
        progressed = False
        while state.pending:
            atom_index, attribute = state.pending.pop(0)
            count("chase.steps")
            atom = state.atoms[atom_index]
            rel = schema.relation(atom.relation)
            path = state.paths[atom_index]
            term = atom.terms[rel.position(attribute)]
            nullable = rel.is_nullable(attribute)

            if mode == MODIFIED and nullable and (path, attribute) not in state.decisions:
                # null rule: split into the null and the non-null branch.
                null_branch = state.clone()
                null_branch.decisions[(path, attribute)] = NULL
                null_branch.null_vars.append(term)

                nonnull_branch = state
                nonnull_branch.decisions[(path, attribute)] = NONNULL
                nonnull_branch.nonnull_vars.append(term)
                nonnull_branch.pending.insert(0, (atom_index, attribute))

                # Explore null-first: the stack is LIFO, so push non-null first.
                stack.append(nonnull_branch)
                stack.append(null_branch)
                count("chase.null_splits")
                progressed = True
                break

            fk = schema.foreign_key_from(atom.relation, attribute)
            if fk is None:
                continue
            if mode == MODIFIED and nullable:
                if state.decisions.get((path, attribute)) != NONNULL:
                    continue  # ind rule requires mandatory or non-null
            if _has_atom_with_key(schema, state, fk.referenced, term):
                continue
            assert isinstance(term, Variable)
            count("chase.fk_traversals")
            _new_atom(
                schema,
                state,
                fk.referenced,
                path + (attribute,),
                (atom_index, attribute),
                factory,
                key_term=term,
            )
        else:
            finished.append(state)
            progressed = True
        if not progressed:  # pragma: no cover - defensive
            finished.append(state)

    # Siblings whose atoms are over the same relations share one index.
    indexes: dict[tuple[str, ...], dict[str, list[int]]] = {}
    tableaux = []
    for state in finished:
        relations = tuple(atom.relation for atom in state.atoms)
        if relations not in indexes:
            indexes[relations] = build_relation_index(state.atoms)
        tableau = PartialTableau(
            schema,
            relation,
            state.atoms,
            state.paths,
            state.parents,
            null_vars=state.null_vars,
            nonnull_vars=state.nonnull_vars,
            decisions=state.decisions,
            relation_index=indexes[relations],
        )
        tableaux.append(tableau)
    return tableaux


def standard_chase(schema: Schema, relation: str) -> PartialTableau:
    """The single (ordinary) tableau of ``relation`` under the standard chase."""
    return chase_relation(schema, relation, mode=STANDARD)[0]


def modified_chase(schema: Schema, relation: str) -> list[PartialTableau]:
    """All partial tableaux of ``relation`` under the modified chase."""
    return chase_relation(schema, relation, mode=MODIFIED)


def logical_relations(schema: Schema, mode: str = MODIFIED) -> list[PartialTableau]:
    """All logical relations of a schema (Algorithm 1 / 3, step 1).

    Relations are chased in declaration order after checking weak acyclicity.
    """
    with span("chase.schema", schema=schema.name, mode=mode) as trace:
        check_weak_acyclicity(schema)
        tableaux: list[PartialTableau] = []
        for relation in schema.relation_names():
            tableaux.extend(chase_relation(schema, relation, mode=mode))
        trace.set(tableaux=len(tableaux))
        return tableaux
