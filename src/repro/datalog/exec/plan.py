"""Rule compilation: explicit set-oriented operator trees.

Every rule of a generated program is compiled once into a linear operator
pipeline::

    scan -> indexed hash-join* -> filter* -> antijoin* -> project

* the *scan* reads one body atom's relation, applies its constant / null
  position filters, and captures the atom's variables into numbered slots;
* each *join* probes a hash index of another body atom's relation on the
  positions already bound (by slots or constants) and extends the slot
  tuple with the atom's new variables;
* *filters* evaluate the rule's ``=null`` / ``!=null`` / equality /
  disequality conditions over slots;
* *antijoins* implement safe stratified negation: a candidate binding is
  dropped when the negated relation contains the instantiated tuple;
* the *project* builds the head row, turning Skolem functor terms into
  :class:`repro.model.values.LabeledNull` invented values.

The join order is chosen **once per rule** from relation statistics (row
counts), not per binding like the reference interpreter: the planner greedily
starts from the most selective atom (smallest relation after constant
filters) and repeatedly picks the atom with the most bound positions,
breaking ties by relation size and original atom order.  Plans mention only
slot numbers, relation names, positions, constants and Skolem functors, so
their rendering is deterministic across runs (logical variable display names
are not).

Value expressions (probe keys, filter operands, head templates) are small
tagged tuples — ``("slot", i)``, ``("const", v)``, ``("null",)`` and
``("skolem", functor, args)`` — kept picklable so whole plans can be shipped
to worker processes by :mod:`repro.datalog.exec.workers`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ...errors import EvaluationError
from ...logic.atoms import RelationalAtom
from ...logic.terms import Constant, NullTerm, SkolemTerm, Term, Variable
from ..program import DatalogProgram, Rule

#: A compiled value expression: ("slot", i) | ("const", v) | ("null",)
#: | ("skolem", functor, tuple[ValueExpr, ...]).
ValueExpr = tuple


def compile_term(term: Term, slots: Mapping[Variable, int]) -> ValueExpr:
    """Compile a head/condition term to a :data:`ValueExpr` over slots."""
    if isinstance(term, Variable):
        try:
            return ("slot", slots[term])
        except KeyError:
            raise EvaluationError(f"unbound variable {term!r}") from None
    if isinstance(term, NullTerm):
        return ("null",)
    if isinstance(term, Constant):
        return ("const", term.value)
    if isinstance(term, SkolemTerm):
        return (
            "skolem",
            term.functor,
            tuple(compile_term(a, slots) for a in term.args),
        )
    raise EvaluationError(f"cannot compile term {term!r}")  # pragma: no cover


def render_expr(expr: ValueExpr) -> str:
    """Deterministic text for one value expression (``s0``, ``'MJ'``, ``f(s0)``)."""
    kind = expr[0]
    if kind == "slot":
        return f"s{expr[1]}"
    if kind == "const":
        return repr(expr[1])
    if kind == "null":
        return "null"
    inner = ",".join(render_expr(a) for a in expr[2])
    return f"{expr[1]}({inner})"


@dataclass(frozen=True)
class ScanOp:
    """Read one relation, filter on constants/nulls, capture variables."""

    relation: str
    rows_estimate: int
    #: positions that must equal a constant value
    const_eq: tuple[tuple[int, Any], ...]
    #: positions that must hold the unlabeled null
    null_eq: tuple[int, ...]
    #: repeated variable inside the atom: both positions must agree
    same: tuple[tuple[int, int], ...]
    #: (position, slot) pairs, in slot order
    capture: tuple[tuple[int, int], ...]

    def render(self) -> str:
        parts = [f"scan {self.relation}"]
        for position, value in self.const_eq:
            parts.append(f"[{position}]={value!r}")
        for position in self.null_eq:
            parts.append(f"[{position}]=null")
        for left, right in self.same:
            parts.append(f"[{left}]==[{right}]")
        captured = ", ".join(f"[{p}]->s{s}" for p, s in self.capture)
        parts.append(f"-> ({captured})")
        parts.append(f"est={self.rows_estimate}")
        return " ".join(parts)


@dataclass(frozen=True)
class JoinOp:
    """Probe a hash index of ``relation`` on the already-bound positions."""

    relation: str
    rows_estimate: int
    #: index key: positions of the relation, parallel to ``key_exprs``
    key_positions: tuple[int, ...]
    key_exprs: tuple[ValueExpr, ...]
    #: repeated *new* variable inside the atom: both positions must agree
    same: tuple[tuple[int, int], ...]
    #: (position, slot) pairs for the atom's new variables, in slot order
    capture: tuple[tuple[int, int], ...]

    def render(self) -> str:
        keys = ", ".join(
            f"[{p}]={render_expr(e)}"
            for p, e in zip(self.key_positions, self.key_exprs)
        )
        parts = [f"join {self.relation} on ({keys})"]
        for left, right in self.same:
            parts.append(f"[{left}]==[{right}]")
        if self.capture:
            captured = ", ".join(f"[{p}]->s{s}" for p, s in self.capture)
            parts.append(f"-> ({captured})")
        parts.append(f"est={self.rows_estimate}")
        return " ".join(parts)


@dataclass(frozen=True)
class FilterOp:
    """A compiled condition: ``null`` / ``nonnull`` / ``eq`` / ``ne``."""

    kind: str
    left: ValueExpr
    right: ValueExpr | None = None

    def render(self) -> str:
        if self.kind == "null":
            return f"filter {render_expr(self.left)} = null"
        if self.kind == "nonnull":
            return f"filter {render_expr(self.left)} != null"
        op = "=" if self.kind == "eq" else "!="
        assert self.right is not None
        return f"filter {render_expr(self.left)} {op} {render_expr(self.right)}"


@dataclass(frozen=True)
class AntiJoinOp:
    """Safe negation: drop bindings present in the negated relation."""

    relation: str
    exprs: tuple[ValueExpr, ...]

    def render(self) -> str:
        inner = ", ".join(render_expr(e) for e in self.exprs)
        return f"antijoin {self.relation}({inner})"


@dataclass(frozen=True)
class ProjectOp:
    """Build the (skolemizing) head row."""

    relation: str
    exprs: tuple[ValueExpr, ...]

    def render(self) -> str:
        inner = ", ".join(render_expr(e) for e in self.exprs)
        return f"project {self.relation}({inner})"


@dataclass
class RulePlan:
    """One rule compiled to ``scan -> join* -> filter* -> antijoin* -> project``."""

    rule: Rule
    scan: ScanOp | None
    joins: tuple[JoinOp, ...]
    filters: tuple[FilterOp, ...]
    antijoins: tuple[AntiJoinOp, ...]
    project: ProjectOp
    n_slots: int

    def operators(self) -> list:
        ops: list = []
        if self.scan is not None:
            ops.append(self.scan)
        ops.extend(self.joins)
        ops.extend(self.filters)
        ops.extend(self.antijoins)
        ops.append(self.project)
        return ops

    def render(self) -> str:
        lines = [op.render() for op in self.operators()]
        return "\n".join("  " + line for line in lines)


@dataclass
class ProgramPlan:
    """Per-stratum rule plans for a whole program, in evaluation order."""

    program: DatalogProgram
    order: list[str] = field(default_factory=list)
    #: relation -> plans of its defining rules, in rule order
    plans: dict[str, list[RulePlan]] = field(default_factory=dict)

    def render(self) -> str:
        lines: list[str] = []
        for stratum, relation in enumerate(self.order):
            lines.append(f"stratum {stratum}: {relation}")
            for i, plan in enumerate(self.plans[relation]):
                lines.append(f" rule {i} ({plan.n_slots} slots):")
                lines.append(plan.render())
        return "\n".join(lines)


def _atom_bound_positions(
    atom: RelationalAtom, bound: set[Variable]
) -> tuple[int, ...]:
    """Positions of the atom already determined by constants, nulls or slots."""
    positions = []
    for i, term in enumerate(atom.terms):
        if not isinstance(term, Variable) or term in bound:
            positions.append(i)
    return tuple(positions)


def order_atoms(
    atoms: tuple[RelationalAtom, ...],
    stats: Mapping[str, int],
    advisor=None,
) -> list[int]:
    """The join order: greedy most-bound-first, chosen once from statistics.

    The first atom is the one with the smallest relation (preferring atoms
    with constant filters at equal size); each following atom maximizes the
    number of bound positions, breaking ties by relation size then original
    order.  Deterministic: depends only on the rule and the statistics.

    When *no* statistics are available (the static path) and a cost
    ``advisor`` (:class:`repro.analysis.cost.advisor.JoinOrderAdvisor`) is
    supplied, its symbolically cheapest order wins instead — live row
    counts, when present, stay authoritative.
    """
    remaining = list(range(len(atoms)))
    if not remaining:
        return []
    if advisor is not None and not stats:
        advised = advisor.order(atoms)
        if advised is not None:
            return advised

    def size(i: int) -> int:
        return stats.get(atoms[i].relation, 0)

    first = min(
        remaining,
        key=lambda i: (size(i), -len(_atom_bound_positions(atoms[i], set())), i),
    )
    order = [first]
    remaining.remove(first)
    bound: set[Variable] = {
        t for t in atoms[first].terms if isinstance(t, Variable)
    }
    while remaining:
        best = min(
            remaining,
            key=lambda i: (
                -len(_atom_bound_positions(atoms[i], bound)),
                size(i),
                i,
            ),
        )
        order.append(best)
        remaining.remove(best)
        bound.update(t for t in atoms[best].terms if isinstance(t, Variable))
    return order


def _walk_atom(
    atom: RelationalAtom, slots: dict[Variable, int]
) -> tuple[
    list[tuple[int, ValueExpr]], tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]
]:
    """One walk over a body atom's terms, in position order.

    Returns the positions already determined (by a slot, a constant or
    ``null``) with the value each must equal, the position pairs a repeated
    new variable makes agree, and the ``(position, slot)`` captures of the
    atom's new variables, which are added to ``slots``.
    """
    keys: list[tuple[int, ValueExpr]] = []
    same: list[tuple[int, int]] = []
    capture: list[tuple[int, int]] = []
    first_seen: dict[Variable, int] = {}
    for position, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            # Checked before ``slots``: a repeated new variable's slot is
            # only filled once this atom matches, so it cannot be probed.
            if term in first_seen:
                same.append((first_seen[term], position))
            elif term in slots:
                keys.append((position, ("slot", slots[term])))
            else:
                first_seen[term] = position
                slot = len(slots)
                slots[term] = slot
                capture.append((position, slot))
        elif isinstance(term, Constant):
            keys.append((position, ("const", term.value)))
        elif isinstance(term, NullTerm):
            keys.append((position, ("null",)))
        else:  # pragma: no cover - Skolem terms never occur in bodies
            raise EvaluationError(f"unexpected body term {term!r}")
    return keys, tuple(same), tuple(capture)


def plan_rule(
    rule: Rule, stats: Mapping[str, int] | None = None, advisor=None
) -> RulePlan:
    """Compile one rule into a :class:`RulePlan`.

    ``stats`` maps relation names to row counts; missing relations count as
    empty.  The batch runtime plans each stratum right before evaluating it,
    so every relation a rule reads — sources *and* already-computed
    intermediates — has exact statistics.  ``advisor`` is consulted for the
    join order only when ``stats`` is empty (see :func:`order_atoms`).
    """
    stats = stats or {}
    order = order_atoms(rule.body, stats, advisor)
    slots: dict[Variable, int] = {}
    scan: ScanOp | None = None
    joins: list[JoinOp] = []
    for step, atom_index in enumerate(order):
        atom = rule.body[atom_index]
        estimate = stats.get(atom.relation, 0)
        keys, same, capture = _walk_atom(atom, slots)
        if step == 0:
            # The first atom binds no slots: its keys are constants and nulls.
            scan = ScanOp(
                relation=atom.relation,
                rows_estimate=estimate,
                const_eq=tuple((p, e[1]) for p, e in keys if e[0] == "const"),
                null_eq=tuple(p for p, e in keys if e[0] == "null"),
                same=same,
                capture=capture,
            )
        else:
            joins.append(
                JoinOp(
                    relation=atom.relation,
                    rows_estimate=estimate,
                    key_positions=tuple(p for p, _ in keys),
                    key_exprs=tuple(e for _, e in keys),
                    same=same,
                    capture=capture,
                )
            )
    filters: list[FilterOp] = []
    for var in rule.null_vars:
        filters.append(FilterOp("null", compile_term(var, slots)))
    for var in rule.nonnull_vars:
        filters.append(FilterOp("nonnull", compile_term(var, slots)))
    for equality in rule.equalities:
        filters.append(
            FilterOp(
                "eq",
                compile_term(equality.left, slots),
                compile_term(equality.right, slots),
            )
        )
    for disequality in rule.disequalities:
        filters.append(
            FilterOp(
                "ne",
                compile_term(disequality.left, slots),
                compile_term(disequality.right, slots),
            )
        )
    antijoins = tuple(
        AntiJoinOp(
            relation=atom.relation,
            exprs=tuple(compile_term(t, slots) for t in atom.terms),
        )
        for atom in rule.negated
    )
    project = ProjectOp(
        relation=rule.head.relation,
        exprs=tuple(compile_term(t, slots) for t in rule.head.terms),
    )
    return RulePlan(
        rule=rule,
        scan=scan,
        joins=tuple(joins),
        filters=tuple(filters),
        antijoins=antijoins,
        project=project,
        n_slots=len(slots),
    )


def plan_program(
    program: DatalogProgram,
    stats: Mapping[str, int] | None = None,
) -> ProgramPlan:
    """Compile every rule of a (validated) program, in stratification order.

    This is the static entry point behind ``repro plan``: statistics default
    to empty, and the join order then comes from the symbolic cost advisor
    (key-aware, deterministic), keeping the rendering stable without an
    instance.  The batch runtime instead compiles stratum by stratum with
    live counts (see :mod:`repro.datalog.exec.batch`).
    """
    order = list(program.validate())
    advisor = None
    if not stats:
        # Imported lazily: the cost analyzer imports this module at load
        # time, so the planner reaches back only at call time.
        from ...analysis.cost.advisor import JoinOrderAdvisor

        advisor = JoinOrderAdvisor.for_program(program)
    plans = {
        relation: [
            plan_rule(rule, stats, advisor)
            for rule in program.rules_for(relation)
        ]
        for relation in order
    }
    return ProgramPlan(program=program, order=order, plans=plans)
