"""Cost-based join ordering for statistics-free plan compilation.

The batch runtime plans each stratum with *live* row counts, where the
greedy most-bound-first heuristic of :func:`repro.datalog.exec.plan.
order_atoms` works well.  The static path (``repro plan``, golden
snapshots, the SQL-pushdown compiler to come) has no statistics at all —
every relation counts as empty and the greedy order degenerates to "most
constants first, then input order".  The :class:`JoinOrderAdvisor` fills
that gap with the symbolic cost model of :mod:`.bounds`: it searches the
join orders (exhaustively up to :data:`MAX_EXHAUSTIVE_ATOMS` atoms, the
realistic ceiling for generated rules) by a depth-first branch-and-bound
that prices each prefix once, as the sum of the symbolic
intermediate-result bounds at the calibration point, and returns the
provably cheapest order.  Key joins (fan-out one, via declared
source keys) price linear; joins that cannot cover a key price as
multiplications, so connected, key-walking orders — the FK paths of the
paper's §4 correspondences — win automatically.

``order_atoms`` consults an advisor only when its statistics mapping is
empty, so runtime plans are unchanged.
"""

from __future__ import annotations

from ...logic.atoms import RelationalAtom
from ...logic.terms import Variable
from .facts import CostFacts
from .polynomial import ONE, Polynomial

#: Enumerate all orders up to this many body atoms; larger bodies fall
#: back to the greedy heuristic (factorial blow-up is real).
MAX_EXHAUSTIVE_ATOMS = 6


class JoinOrderAdvisor:
    """Prices candidate join orders with symbolic cardinality bounds."""

    def __init__(self, facts: CostFacts):
        self.facts = facts

    @staticmethod
    def for_program(program) -> "JoinOrderAdvisor":
        """An advisor over the program's schema-derived facts only.

        Source keys are the load-bearing facts for join ordering; the
        certifier/flow facts tighten *bounds* but never change fan-outs of
        body (source or intermediate) relations, so the cheap fact base is
        the right one for the planner hot path.
        """
        return JoinOrderAdvisor(CostFacts.for_program(program))

    # -- the cost model ---------------------------------------------------

    def _step_bound(
        self, atom: RelationalAtom, bound_vars: set[Variable]
    ) -> Polynomial:
        """The fan-out bound of joining ``atom`` given already-bound vars."""
        probed: set[int] = set()
        for index, term in enumerate(atom.terms):
            if not isinstance(term, Variable) or term in bound_vars:
                probed.add(index)
        if probed and (
            self.facts.covers_key(atom.relation, probed)
            or len(probed) == len(atom.terms)
        ):
            return ONE
        return Polynomial.var(atom.relation)

    # -- the advisor entry point ------------------------------------------

    def order(self, atoms: tuple[RelationalAtom, ...]) -> list[int] | None:
        """The provably cheapest join order, or ``None`` to keep greedy.

        An order costs the sum over its prefixes of the symbolic bound on
        the rows materialized after each step, evaluated at the calibration
        point — the classic "sum of intermediate result sizes" objective —
        and the minimum is taken over ``(cost, final degree, order)``.  A
        depth-first search visits the orders lexicographically, extending
        the running product and the total one step at a time, and drops a
        prefix whose cost already exceeds the cheapest complete order: each
        later step adds a non-negative term, so it cannot win.
        """
        if len(atoms) < 2:
            return None
        if len(atoms) > MAX_EXHAUSTIVE_ATOMS:
            return None
        search = _OrderSearch(self, atoms)
        search.extend(0, 1, 0, 0)
        return search.best[2]


class _OrderSearch:
    """The depth-first branch-and-bound behind :meth:`JoinOrderAdvisor.order`."""

    def __init__(self, advisor: JoinOrderAdvisor, atoms: tuple[RelationalAtom, ...]):
        self.advisor = advisor
        self.atoms = atoms
        self.variables = [
            {t for t in atom.terms if isinstance(t, Variable)} for atom in atoms
        ]
        #: (atom, joined-atoms bitmask) -> (calibrated fan-out, its degree)
        self.steps: dict[tuple[int, int], tuple[int, int]] = {}
        self.prefix: list[int] = []
        #: (cost, degree, order) of the cheapest complete order so far
        self.best: tuple[int, int, list[int]] | None = None

    def step(self, index: int, joined: int) -> tuple[int, int]:
        """Joining atom ``index`` after the atoms in the ``joined`` bitmask."""
        key = (index, joined)
        if key not in self.steps:
            from .bounds import _calibrate

            bound_vars: set[Variable] = set()
            for other, names in enumerate(self.variables):
                if joined >> other & 1:
                    bound_vars |= names
            fanout = self.advisor._step_bound(self.atoms[index], bound_vars)
            self.steps[key] = (_calibrate(fanout), fanout.degree())
        return self.steps[key]

    def extend(self, joined: int, running: int, total: int, degree: int) -> None:
        """Visit every completion of the current prefix, in lexicographic order."""
        if len(self.prefix) == len(self.atoms):
            if self.best is None or (total, degree) < self.best[:2]:
                self.best = (total, degree, list(self.prefix))
            return
        for index in range(len(self.atoms)):
            if joined >> index & 1:
                continue
            fanout, step_degree = self.step(index, joined)
            rows = running * fanout
            if self.best is not None and total + rows > self.best[0]:
                continue
            self.prefix.append(index)
            self.extend(joined | 1 << index, rows, total + rows, degree + step_degree)
            self.prefix.pop()
