"""Symbolic cardinality polynomials over per-relation size variables.

The cost certifier expresses every bound as a multivariate polynomial with
non-negative integer coefficients in the *source relation sizes*: the
variable ``|P3|`` stands for the number of rows of source relation ``P3``.
Non-negative coefficients keep every operation sound over the non-negative
orthant (instance sizes are never negative):

* ``p + q`` bounds the union of two row sets bounded by ``p`` and ``q``;
* ``p * q`` bounds a join whose fan-out is bounded by ``q`` per row;
* :meth:`Polynomial.sup` (coefficient-wise maximum) bounds ``max(p, q)``;
* :meth:`Polynomial.dominates` is the *sufficient* coefficient-wise test
  for ``p(x) >= q(x)`` at every non-negative ``x``.

Rendering is deterministic (monomials sorted by total degree, then
variable names), so bounds can be pinned in golden snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

#: A monomial: sorted ``(variable, exponent)`` pairs, exponents >= 1.
Monomial = tuple[tuple[str, int], ...]


def _mul_monomials(left: Monomial, right: Monomial) -> Monomial:
    powers: dict[str, int] = dict(left)
    for name, exponent in right:
        powers[name] = powers.get(name, 0) + exponent
    return tuple(sorted(powers.items()))


def _monomial_degree(monomial: Monomial) -> int:
    return sum(exponent for _, exponent in monomial)


def _render_monomial(monomial: Monomial) -> str:
    factors = []
    for name, exponent in monomial:
        factor = f"|{name}|"
        if exponent > 1:
            factor += f"^{exponent}"
        factors.append(factor)
    return "*".join(factors)


@dataclass(frozen=True)
class Polynomial:
    """An immutable polynomial with non-negative integer coefficients."""

    #: monomial -> coefficient; no zero coefficients, () is the constant term
    terms: tuple[tuple[Monomial, int], ...]

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _build(mapping: Mapping[Monomial, int]) -> "Polynomial":
        cleaned = {m: c for m, c in mapping.items() if c}
        for coefficient in cleaned.values():
            if coefficient < 0:
                raise ValueError("cardinality polynomials are non-negative")
        ordered = sorted(
            cleaned.items(),
            key=lambda item: (_monomial_degree(item[0]), item[0]),
        )
        return Polynomial(terms=tuple(ordered))

    @staticmethod
    def const(value: int) -> "Polynomial":
        return Polynomial._build({(): value} if value else {})

    @staticmethod
    def var(name: str) -> "Polynomial":
        return Polynomial._build({((name, 1),): 1})

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        combined = dict(self.terms)
        for monomial, coefficient in other.terms:
            combined[monomial] = combined.get(monomial, 0) + coefficient
        return Polynomial._build(combined)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        product: dict[Monomial, int] = {}
        for left, lc in self.terms:
            for right, rc in other.terms:
                monomial = _mul_monomials(left, right)
                product[monomial] = product.get(monomial, 0) + lc * rc
        return Polynomial._build(product)

    def sup(self, other: "Polynomial") -> "Polynomial":
        """Coefficient-wise maximum: a sound upper bound of ``max(p, q)``."""
        combined = dict(self.terms)
        for monomial, coefficient in other.terms:
            combined[monomial] = max(combined.get(monomial, 0), coefficient)
        return Polynomial._build(combined)

    # -- queries ---------------------------------------------------------

    def degree(self) -> int:
        """Total degree (0 for constants and the zero polynomial)."""
        return max(
            (_monomial_degree(m) for m, _ in self.terms), default=0
        )

    def variables(self) -> set[str]:
        return {name for monomial, _ in self.terms for name, _ in monomial}

    def evaluate(self, sizes: Mapping[str, int], default: int = 0) -> int:
        """The bound's value at concrete relation sizes."""
        total = 0
        for monomial, coefficient in self.terms:
            value = coefficient
            for name, exponent in monomial:
                value *= sizes.get(name, default) ** exponent
            total += value
        return total

    def dominates(self, other: "Polynomial") -> bool:
        """Sufficient test: every coefficient of ``other`` is covered.

        ``p.dominates(q)`` implies ``p(x) >= q(x)`` for all non-negative
        ``x`` (all terms are non-negative); the converse need not hold.
        """
        mine = dict(self.terms)
        return all(
            mine.get(monomial, 0) >= coefficient
            for monomial, coefficient in other.terms
        )

    def substitute(self, bindings: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Replace variables by polynomials (intermediate-size expansion)."""
        result = ZERO
        for monomial, coefficient in self.terms:
            term = Polynomial.const(coefficient)
            for name, exponent in monomial:
                factor = bindings.get(name, Polynomial.var(name))
                for _ in range(exponent):
                    term = term * factor
            result = result + term
        return result

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for monomial, coefficient in self.terms:
            if not monomial:
                parts.append(str(coefficient))
            elif coefficient == 1:
                parts.append(_render_monomial(monomial))
            else:
                parts.append(f"{coefficient}*{_render_monomial(monomial)}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()


ZERO = Polynomial.const(0)
ONE = Polynomial.const(1)


class Unbounded:
    """The top element: no finite polynomial bound exists (PLN003).

    Only produced when the program-level termination certificate is
    unbounded; arithmetic is absorbing so a single unbounded input taints
    every downstream bound.
    """

    _instance: "Unbounded | None" = None

    def __new__(cls) -> "Unbounded":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def render(self) -> str:
        return "unbounded"

    def __str__(self) -> str:
        return "unbounded"

    def __repr__(self) -> str:
        return "UNBOUNDED"


UNBOUNDED = Unbounded()

#: A cardinality bound: a polynomial, or no bound at all.
Bound = "Polynomial | Unbounded"
