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
nested to bounded depth).  The certificate also reports that bound — the
maximum number of special edges on any path, computed by longest-path DP
over the strongly-connected-component condensation — which equals the
maximum Skolem nesting depth any chase sequence can reach.  The other
certifier passes require a bounded certificate: their canonical-instance
arguments unfold the program only finitely often.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...datalog.program import DatalogProgram, Rule
from ...logic.terms import SkolemTerm, Variable
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

    def successors(self, node: Position) -> list[Position]:
        return sorted(v for (u, v) in self.all_edges() if u == node)


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


def _find_special_cycle(graph: ProgramDependencyGraph) -> list[Position] | None:
    """A cycle through a special edge, or ``None`` (mirrors model.graph)."""
    adjacency: dict[Position, list[Position]] = {}
    for u, v in sorted(graph.all_edges()):
        adjacency.setdefault(u, []).append(v)
    for u, v in sorted(graph.special_edges):
        path = _find_path(adjacency, v, u)
        if path is not None:
            return [u] + path
    return None


def _find_path(
    adjacency: dict[Position, list[Position]],
    start: Position,
    goal: Position,
) -> list[Position] | None:
    stack: list[tuple[Position, list[Position]]] = [(start, [start])]
    seen = {start}
    while stack:
        node, path = stack.pop()
        if node == goal:
            return path
        for succ in adjacency.get(node, ()):
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, path + [succ]))
    return None


def _sccs(graph: ProgramDependencyGraph) -> dict[Position, int]:
    """Node → SCC id, ids in reverse topological order (Tarjan, iterative)."""
    adjacency: dict[Position, list[Position]] = {}
    for u, v in sorted(graph.all_edges()):
        adjacency.setdefault(u, []).append(v)
    index_of: dict[Position, int] = {}
    low: dict[Position, int] = {}
    on_stack: set[Position] = set()
    stack: list[Position] = []
    component: dict[Position, int] = {}
    counter = iter(range(len(graph.nodes) + 1))
    next_component = iter(range(len(graph.nodes) + 1))

    for root in sorted(graph.nodes):
        if root in index_of:
            continue
        work: list[tuple[Position, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index_of[node] = low[node] = next(counter)
                stack.append(node)
                on_stack.add(node)
            children = adjacency.get(node, [])
            recursed = False
            for i in range(child_index, len(children)):
                child = children[i]
                if child not in index_of:
                    work.append((node, i + 1))
                    work.append((child, 0))
                    recursed = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index_of[child])
            if recursed:
                continue
            if low[node] == index_of[node]:
                scc = next(next_component)
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component[member] = scc
                    low[member] = index_of[node]
                    if member == node:
                        break
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return component


def _depth_bound(graph: ProgramDependencyGraph) -> int:
    """Max special edges on any path (graph must be weakly acyclic)."""
    component = _sccs(graph)
    # Weak acyclicity puts every special edge between distinct SCCs, so the
    # condensation DAG carries them all; longest-path DP gives the bound.
    condensed: dict[int, list[tuple[int, int]]] = {}
    indegree: dict[int, int] = {c: 0 for c in component.values()}
    for u, v in sorted(graph.special_edges):
        condensed.setdefault(component[u], []).append((component[v], 1))
    for u, v in sorted(graph.ordinary_edges):
        if component[u] != component[v]:
            condensed.setdefault(component[u], []).append((component[v], 0))
    for edges in condensed.values():
        for target, _ in edges:
            indegree[target] += 1

    from collections import deque

    depth: dict[int, int] = {c: 0 for c in indegree}
    queue = deque(c for c, d in indegree.items() if d == 0)
    while queue:
        node = queue.popleft()
        for target, weight in condensed.get(node, ()):
            depth[target] = max(depth[target], depth[node] + weight)
            indegree[target] -= 1
            if indegree[target] == 0:
                queue.append(target)
    return max(depth.values(), default=0)


def certify_termination(program: DatalogProgram) -> TerminationCertificate:
    """Decide program-level weak acyclicity and the chase-depth bound."""
    graph = build_program_graph(program)
    cycle = _find_special_cycle(graph)
    if cycle is not None:
        count("certify.termination", 1, outcome="unbounded")
        return TerminationCertificate(
            bounded=False, depth_bound=None, graph=graph, cycle=cycle
        )
    bound = _depth_bound(graph)
    count("certify.termination", 1, outcome="bounded")
    count("certify.chase_depth_bound", bound)
    return TerminationCertificate(bounded=True, depth_bound=bound, graph=graph)
