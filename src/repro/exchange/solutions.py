"""Solution-quality checks: homomorphisms between instances, universality.

In data exchange, invented values (labeled nulls) act as placeholders: an
instance ``A`` maps homomorphically into ``B`` when there is a value
assignment for ``A``'s labeled nulls making every tuple of ``A`` a tuple of
``B`` (constants and the unlabeled null are fixed points).  A solution is
*universal* when it maps homomorphically into every solution; against the
canonical solution this gives an effective test, used by the benchmarks to
verify the paper's Appendix-B claims about skolemization strategies.
"""

from __future__ import annotations

from ..model.diff import find_instance_homomorphism
from ..model.instance import Instance


def is_homomorphic_to(a: Instance, b: Instance) -> bool:
    """True iff ``a`` maps homomorphically into ``b``."""
    return find_instance_homomorphism(a, b) is not None


def homomorphically_equivalent(a: Instance, b: Instance) -> bool:
    """True iff homomorphisms exist in both directions."""
    return is_homomorphic_to(a, b) and is_homomorphic_to(b, a)


def is_universal_solution(candidate: Instance, canonical: Instance) -> bool:
    """Is ``candidate`` a universal solution, given the canonical solution?

    The canonical solution is universal; a candidate solution is universal
    iff it is homomorphically equivalent to the canonical one.
    """
    return homomorphically_equivalent(candidate, canonical)
