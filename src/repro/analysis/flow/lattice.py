"""Lattice protocol and the concrete abstract domains of the flow engine.

A monotone dataflow framework needs, per analysis, a join-semilattice of
abstract values: a least element, a join, a partial order, and — for domains
of unbounded height — a widening operator guaranteeing termination.  The
:class:`Lattice` base class fixes that protocol; the concrete domains used
by the shipped analyses are finite-height (so the default widening, plain
join, already terminates) but the hook is honored by the solver and
exercised by the test suite's synthetic counter domain.

Domains shipped here:

* :class:`NullabilityLattice` — the three-valued "can this position be
  null?" domain ``NO`` / ``YES`` / ``MAYBE`` (plus bottom), ordered
  ``BOTTOM ⊑ NO ⊑ MAYBE`` and ``BOTTOM ⊑ YES ⊑ MAYBE``;
* :class:`SetLattice` — finite powersets under union (source provenance);
* :class:`RankedLattice` — a total order encoded by rank (key origin).
"""

from __future__ import annotations

from typing import Any, Iterable


class Lattice:
    """A join-semilattice of abstract values.

    Subclasses must provide :meth:`bottom` and :meth:`join`; :meth:`leq`
    defaults to ``join(a, b) == b`` and :meth:`widen` to plain join (exact
    for finite-height domains).
    """

    def bottom(self) -> Any:
        raise NotImplementedError

    def join(self, left: Any, right: Any) -> Any:
        raise NotImplementedError

    def leq(self, left: Any, right: Any) -> bool:
        """The partial order: ``left ⊑ right``."""
        return self.join(left, right) == right

    def widen(self, old: Any, new: Any) -> Any:
        """Accelerate convergence; must satisfy ``old ⊔ new ⊑ widen(old, new)``.

        The default is the join itself, which is a correct widening exactly
        for finite-height domains.  Unbounded domains must override this to
        jump to a post-fixpoint (the solver switches from join to widen at a
        position after ``WIDEN_AFTER`` visits of its relation).
        """
        return self.join(old, new)

    def join_all(self, values: Iterable[Any]) -> Any:
        result = self.bottom()
        for value in values:
            result = self.join(result, value)
        return result

    def format(self, value: Any) -> str:
        """Render one abstract value for the ``repro flow`` dump."""
        return str(value)


# -- nullability: BOTTOM ⊑ {NO, YES} ⊑ MAYBE -------------------------------

BOTTOM = "bottom"
NO = "no"
YES = "yes"
MAYBE = "maybe"

_NULL_RANK = {BOTTOM: 0, NO: 1, YES: 1, MAYBE: 2}


class NullabilityLattice(Lattice):
    """Three-valued nullability: ``NO`` never null, ``YES`` always null,
    ``MAYBE`` either; ``BOTTOM`` means "no row reaches this position"."""

    def bottom(self) -> str:
        return BOTTOM

    def join(self, left: str, right: str) -> str:
        if left == right:
            return left
        if left == BOTTOM:
            return right
        if right == BOTTOM:
            return left
        return MAYBE  # NO ⊔ YES, or anything ⊔ MAYBE

    def leq(self, left: str, right: str) -> bool:
        return left == right or left == BOTTOM or right == MAYBE

    def meet(self, left: str, right: str) -> str:
        """The greatest lower bound (used by variable transfer functions:
        a variable bound at several positions satisfies all of them)."""
        if left == right:
            return left
        if left == MAYBE:
            return right
        if right == MAYBE:
            return left
        return BOTTOM  # NO ⊓ YES, or anything ⊓ BOTTOM


# -- provenance: finite powersets under union ------------------------------


class SetLattice(Lattice):
    """Frozen sets under union.  With a ``universe``, widening jumps to it."""

    def __init__(self, universe: frozenset | None = None):
        self.universe = universe

    def bottom(self) -> frozenset:
        return frozenset()

    def join(self, left: frozenset, right: frozenset) -> frozenset:
        return left | right

    def leq(self, left: frozenset, right: frozenset) -> bool:
        return left <= right

    def widen(self, old: frozenset, new: frozenset) -> frozenset:
        joined = old | new
        if self.universe is not None and joined != old:
            return self.universe
        return joined

    def format(self, value: frozenset) -> str:
        return "{" + ", ".join(sorted(str(v) for v in value)) + "}"


# -- key origin: a total order encoded by rank -----------------------------


class RankedLattice(Lattice):
    """A chain ``v0 ⊑ v1 ⊑ ... ⊑ vn`` given as an ordered value tuple."""

    def __init__(self, chain: tuple[str, ...]):
        if not chain:
            raise ValueError("a ranked lattice needs at least one value")
        self.chain = chain
        self._rank = {value: rank for rank, value in enumerate(chain)}

    def bottom(self) -> str:
        return self.chain[0]

    def join(self, left: str, right: str) -> str:
        return left if self._rank[left] >= self._rank[right] else right

    def leq(self, left: str, right: str) -> bool:
        return self._rank[left] <= self._rank[right]
