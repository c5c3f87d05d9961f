"""The static facts the cardinality pass consumes.

The bounds are only as tight as the facts feeding them, and every fact has
a proof obligation discharged elsewhere in the code base:

* **source keys** — declared on the source schema; valid source instances
  (the standing premise of the whole pipeline, enforced by
  ``validate_instance``) satisfy them, so a join probing a full key of a
  source relation has fan-out at most one;
* **proved target keys** — the PR 7 certifier's ``PROVED`` key verdicts:
  in *every* reachable target instance no two distinct rows of the
  relation share a key value, so the relation's size is bounded by the
  number of distinct key values any rule can emit;
* **functional rules** — the flow engine's static replay of Algorithm 4's
  functionality check: a confirmed rule derives at most one row per
  distinct key value, even when the relation-level key is not (yet)
  proved;
* **nullability** — the solved three-valued fixpoint: a ``= null`` filter
  over a position proved ``NO`` (never null) passes zero rows, and
  symmetrically for ``!= null`` over ``YES``;
* **chase-depth bound** — the TRM001 termination certificate; ``None``
  means no bound exists and every cardinality collapses to ``unbounded``
  (PLN003).

:func:`CostFacts.for_program` assembles the conservative, schema-only
subset (no certifier, no flow engine) — sound but looser;
``MappingSystem.cost_report`` builds the full set from the cached
certification and flow reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...datalog.program import DatalogProgram

#: Lattice constants mirrored from repro.analysis.flow.lattice (string values).
_NO = "NO"
_YES = "YES"


@dataclass
class CostFacts:
    """Everything the abstract interpreter may assume about instances."""

    #: relation -> frozenset of key position sets known to hold
    keys: dict[str, tuple[tuple[int, ...], ...]] = field(default_factory=dict)
    #: target relation -> declared key positions (for the head refinement)
    head_keys: dict[str, tuple[int, ...]] = field(default_factory=dict)
    #: target relations whose key constraint the certifier PROVED
    proved_key_relations: frozenset[str] = frozenset()
    #: id(rule) of rules whose functionality is statically confirmed
    functional_rules: frozenset[int] = frozenset()
    #: (relation, position) -> nullability lattice value ("NO"/"YES"/...)
    nullability: dict[tuple[str, int], str] = field(default_factory=dict)
    #: positions declared NOT NULL by a schema (source or target)
    nonnull_positions: frozenset[tuple[str, int]] = frozenset()
    #: the TRM001 chase-depth bound; None = unbounded (PLN003)
    chase_depth_bound: int | None = 0

    def key_sets(self, relation: str) -> tuple[tuple[int, ...], ...]:
        return self.keys.get(relation, ())

    def covers_key(self, relation: str, positions: set[int]) -> bool:
        """True when ``positions`` includes some known key of ``relation``."""
        return any(
            set(key) <= positions for key in self.key_sets(relation)
        )

    def never_null(self, relation: str, position: int) -> bool:
        if (relation, position) in self.nonnull_positions:
            return True
        return self.nullability.get((relation, position)) == _NO

    def always_null(self, relation: str, position: int) -> bool:
        return self.nullability.get((relation, position)) == _YES

    # -- construction ----------------------------------------------------

    @staticmethod
    def for_program(
        program: DatalogProgram,
        certification=None,
        flow=None,
    ) -> "CostFacts":
        """Assemble the fact base for one generated program.

        Without ``certification`` / ``flow`` reports only schema-derived
        facts are used: source keys, schema NOT NULL positions and the
        termination certificate (computed here — it is cheap and the
        precondition of everything else).
        """
        keys: dict[str, tuple[tuple[int, ...], ...]] = {}
        nonnull: set[tuple[str, int]] = set()
        for schema in (program.source_schema,):
            if schema is None:
                continue
            for relation in schema:
                keys[relation.name] = (relation.key_positions(),)
                for position, attribute in enumerate(relation.attributes):
                    if not attribute.nullable:
                        nonnull.add((relation.name, position))

        target = program.target_schema
        head_keys: dict[str, tuple[int, ...]] = {}
        if target is not None:
            for relation in target:
                head_keys[relation.name] = relation.key_positions()

        functional: set[int] = set()
        nullability: dict[tuple[str, int], str] = {}
        proved_keys: set[str] = set()
        if certification is not None:
            proved_keys = {
                verdict.relation
                for verdict in certification.verdicts
                if verdict.kind == "key" and verdict.verdict == "PROVED"
            }
            if target is not None:
                for name in proved_keys:
                    if name in target:
                        keys.setdefault(
                            name, (target.relation(name).key_positions(),)
                        )
        if flow is not None:
            for record in flow.functionality:
                if record.confirmed:
                    functional.add(id(record.rule))
            solved = flow.nullability
            for relation in program.defined_relations():
                arity = program.relation_arity(relation) or 0
                for position in range(arity):
                    nullability[(relation, position)] = solved.value(
                        relation, position
                    )

        certificate = getattr(certification, "termination", None)
        if certificate is None:
            from ..certify.termination import certify_termination

            certificate = certify_termination(program)
        return CostFacts(
            keys=keys,
            head_keys=head_keys,
            proved_key_relations=frozenset(proved_keys),
            functional_rules=frozenset(functional),
            nullability=nullability,
            nonnull_positions=frozenset(nonnull),
            chase_depth_bound=(
                certificate.depth_bound if certificate.bounded else None
            ),
        )
