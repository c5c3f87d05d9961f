"""Random source instances that are valid by construction.

Instances are built in two phases: first every relation's key tuples are
fixed, then rows are filled in with foreign-key values drawn from the
referenced relation's already-decided keys (so foreign keys are closed) and
nulls only on nullable attributes.  Key attributes that are themselves
foreign keys (``O3(car key -> C3)`` in the paper's figures) draw their key
components from the referenced keys instead, with colliding rows dropped
rather than repaired — so keys stay unique by construction either way.  The
two-phase shape also works on cyclic schemas, where no row-by-row fill
order could satisfy foreign keys.

Decisions go through a small chooser interface so the same construction
serves two masters: :class:`RandomChooser` for the seeded generator, and a
hypothesis-draw-backed chooser in ``tests/strategies.py`` for the
property-based suites — one valid-instance builder instead of per-test
copies.
"""

from __future__ import annotations

import random

from ...model.graph import depth_first
from ...model.instance import Instance
from ...model.schema import Schema
from ...model.values import NULL
from .config import DEFAULT

#: small shared pool so payload values collide across rows and relations,
#: exercising joins and value equalities
PAYLOAD_POOL = ("u", "v", "w")


class RandomChooser:
    """Decision source backed by a seeded :class:`random.Random`."""

    def __init__(self, rng: random.Random):
        self._rng = rng

    def size(self, lo: int, hi: int) -> int:
        """How many rows a relation gets (inclusive range)."""
        return self._rng.randint(lo, hi)

    def index(self, n: int) -> int:
        """Pick one of ``n`` alternatives."""
        return self._rng.randrange(n)

    def flag(self, probability: float) -> bool:
        """An independent biased coin (null-vs-value draws)."""
        return self._rng.random() < probability

    def value(self, relation: str, attribute: str, row: int) -> str:
        """A payload value: pooled half the time, row-unique otherwise."""
        if self._rng.random() < 0.5:
            return PAYLOAD_POOL[self._rng.randrange(len(PAYLOAD_POOL))]
        return f"{relation}.{attribute}.{row}"


def _key_fill_order(schema: Schema) -> list[str]:
    """Relations ordered so key-attribute foreign keys point backwards.

    Only dependencies through *key* attributes force an order; plain
    foreign keys are resolved in phase 2 against already-decided keys, so
    even reciprocal (cyclic) references are fine there.
    """
    depends: dict[str, set[str]] = {r.name: set() for r in schema}
    for relation in schema:
        for key_attr in relation.key:
            fk = schema.foreign_key_from(relation.name, key_attr)
            if fk is not None:
                depends[relation.name].add(fk.referenced)
    order, cycle = depth_first(depends, lambda name: sorted(depends[name]))
    if cycle is not None:
        raise ValueError(
            f"cannot build an instance: key foreign keys of {cycle[0]!r} form a cycle"
        )
    return order


def build_instance(
    schema: Schema,
    chooser,
    rows: tuple[int, int] = DEFAULT.rows,
    null_fraction: float = DEFAULT.null_fraction,
) -> Instance:
    """A key-unique, foreign-key-closed instance of ``schema``.

    ``chooser`` provides the decisions (see :class:`RandomChooser`); rows per
    relation are drawn from the inclusive ``rows`` range, and each nullable
    attribute is null with probability ``null_fraction``.  When ``rows``
    allows empty relations, rows that would need a mandatory reference into
    an empty relation are dropped, preserving validity by construction.
    """
    counts = {r.name: chooser.size(*rows) for r in schema}
    # Phase 1: key tuples.  Fresh row-indexed names are distinct by
    # construction; key components that traverse a foreign key draw from the
    # referenced keys instead, dropping rows whose key tuple collides.
    keys: dict[str, list[tuple[str, ...]]] = {}
    for name in _key_fill_order(schema):
        relation = schema.relation(name)
        seen: set[tuple[str, ...]] = set()
        decided: list[tuple[str, ...]] = []
        for i in range(counts[name]):
            parts = []
            for key_attr in relation.key:
                fk = schema.foreign_key_from(name, key_attr)
                if fk is None:
                    parts.append(f"{name}.{key_attr}.{i}")
                else:
                    referenced = keys[fk.referenced]
                    if not referenced:
                        break  # nothing to reference: drop the row
                    # referenced keys are simple (paper restriction)
                    parts.append(referenced[chooser.index(len(referenced))][0])
            else:
                key = tuple(parts)
                if key in seen:
                    continue  # drop rather than repair: keys stay unique
                seen.add(key)
                decided.append(key)
        keys[name] = decided
    instance = Instance(schema)
    # Phase 2: full rows, foreign keys resolved against phase-1 keys.
    for relation in schema:
        key_position = {attr: i for i, attr in enumerate(relation.key)}
        for i, key in enumerate(keys[relation.name]):
            row = []
            for attr in relation.attributes:
                if attr.name in key_position:
                    row.append(key[key_position[attr.name]])
                    continue
                if attr.nullable and chooser.flag(null_fraction):
                    row.append(NULL)
                    continue
                fk = schema.foreign_key_from(relation.name, attr.name)
                if fk is not None:
                    referenced = keys[fk.referenced]
                    if not referenced:
                        if attr.nullable:
                            row.append(NULL)
                            continue
                        break  # mandatory reference into an empty relation
                    row.append(referenced[chooser.index(len(referenced))][0])
                else:
                    row.append(chooser.value(relation.name, attr.name, i))
            else:
                instance.add(relation.name, tuple(row))
    return instance


def generate_instance(
    schema: Schema,
    seed: int,
    rows: tuple[int, int] = DEFAULT.rows,
    null_fraction: float = DEFAULT.null_fraction,
) -> Instance:
    """The seeded form of :func:`build_instance`.

    Seeded with a string so the stream is independent of ``PYTHONHASHSEED``
    (string seeds are hashed with sha512, not the per-process ``hash``).
    """
    rng = random.Random(f"repro-generator-instance-{seed}")
    return build_instance(schema, RandomChooser(rng), rows=rows, null_fraction=null_fraction)
