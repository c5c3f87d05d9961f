"""Program-level weak acyclicity and the chase-depth bound (TRM001).

:mod:`repro.model.graph` checks weak acyclicity of a *schema*'s foreign
keys (§3.1).  This pass lifts the same test to the generated Datalog
program, viewed as a set of tgds whose existential variables are the Skolem
functor applications:

* nodes are the positions ``(relation, index)`` of every head relation and
  every body relation of the program;
* a rule with head term ``x`` (a variable) at position π gets an *ordinary*
  edge from every body position binding ``x`` to π — values flow unchanged;
* a rule with head term ``f(..., x, ...)`` (a Skolem term, possibly nested)
  at position π gets a *special* edge from every body position binding any
  variable of the term to π — a fresh invented value is created from ``x``.

The program is chase-terminating when no cycle goes through a special edge
(the classical weak-acyclicity argument: invented values can then only be
nested to bounded depth).  The search for such a cycle is the schema test's
own :func:`repro.model.graph.special_cycle`, here over sorted edges.  The
certificate also reports that bound — the maximum number of special edges
on any path, computed by a longest-path relaxation in which special edges
weigh 1 and ordinary edges 0 (no cycle can raise a depth once no special
cycle exists) — which equals the maximum Skolem nesting depth any chase
sequence can reach.  The other certifier passes require a bounded
certificate: their canonical-instance arguments unfold the program only
finitely often.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...datalog.program import DatalogProgram, Rule
from ...logic.terms import SkolemTerm, Variable
from ...model.graph import special_cycle
from ...obs import count

Position = tuple[str, int]


@dataclass
class ProgramDependencyGraph:
    """The Skolem-position dependency graph of one Datalog program."""

    nodes: set[Position] = field(default_factory=set)
    ordinary_edges: set[tuple[Position, Position]] = field(default_factory=set)
    special_edges: set[tuple[Position, Position]] = field(default_factory=set)

    def all_edges(self) -> set[tuple[Position, Position]]:
        return self.ordinary_edges | self.special_edges


@dataclass
class TerminationCertificate:
    """The outcome of the program-level weak-acyclicity test."""

    bounded: bool
    #: max special edges on any path = max Skolem nesting depth of any chase
    depth_bound: int | None
    graph: ProgramDependencyGraph
    #: a cycle through a special edge, as a position list, when unbounded
    cycle: list[Position] | None = None

    def witness(self) -> str:
        if self.bounded:
            return (
                f"program dependency graph is weakly acyclic "
                f"({len(self.graph.nodes)} positions, "
                f"{len(self.graph.ordinary_edges)} ordinary / "
                f"{len(self.graph.special_edges)} special edges); "
                f"chase depth bound {self.depth_bound}"
            )
        assert self.cycle is not None
        path = " -> ".join(f"{r}.{i}" for r, i in self.cycle)
        return f"special cycle: {path}"


def _body_positions(rule: Rule) -> dict[Variable, list[Position]]:
    positions: dict[Variable, list[Position]] = {}
    for atom in rule.body:
        for index, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                positions.setdefault(term, []).append((atom.relation, index))
    return positions


def build_program_graph(program: DatalogProgram) -> ProgramDependencyGraph:
    """The dependency graph over the program's (relation, position) pairs."""
    graph = ProgramDependencyGraph()
    for rule in program.rules:
        binding = _body_positions(rule)
        for sources in binding.values():
            graph.nodes.update(sources)
        for index, term in enumerate(rule.head.terms):
            target = (rule.head_relation, index)
            graph.nodes.add(target)
            if isinstance(term, Variable):
                for source in binding.get(term, ()):
                    graph.ordinary_edges.add((source, target))
            elif isinstance(term, SkolemTerm):
                # Every variable anywhere under the functor feeds the
                # invented value — nested Skolems included.
                for var in term.variables():
                    for source in binding.get(var, ()):
                        graph.special_edges.add((source, target))
    return graph


def _depth_bound(graph: ProgramDependencyGraph) -> int:
    """Max special edges on any path (graph must be weakly acyclic).

    A longest-path relaxation in which ordinary edges weigh 0 and special
    edges weigh 1.  Without a cycle through a special edge no cycle can
    raise a depth, so every push strictly raises a bounded depth and the
    worklist empties.
    """
    weighted: dict[Position, list[tuple[Position, int]]] = {}
    for u, v in graph.ordinary_edges:
        weighted.setdefault(u, []).append((v, 0))
    for u, v in graph.special_edges:
        weighted.setdefault(u, []).append((v, 1))
    depth = dict.fromkeys(graph.nodes, 0)
    work = list(graph.nodes)
    while work:
        node = work.pop()
        for target, weight in weighted.get(node, ()):
            if depth[node] + weight > depth[target]:
                depth[target] = depth[node] + weight
                work.append(target)
    return max(depth.values(), default=0)


def certify_termination(program: DatalogProgram) -> TerminationCertificate:
    """Decide program-level weak acyclicity and the chase-depth bound."""
    graph = build_program_graph(program)
    adjacency: dict[Position, list[Position]] = {}
    for u, v in sorted(graph.all_edges()):
        adjacency.setdefault(u, []).append(v)
    cycle = special_cycle(sorted(graph.special_edges), adjacency)
    if cycle is not None:
        count("certify.termination", 1, outcome="unbounded")
        return TerminationCertificate(
            bounded=False, depth_bound=None, graph=graph, cycle=cycle
        )
    bound = _depth_bound(graph)
    count("certify.termination", 1, outcome="bounded")
    count("certify.chase_depth_bound", bound)
    return TerminationCertificate(bounded=True, depth_bound=bound, graph=graph)
