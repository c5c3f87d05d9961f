"""Every dependency graph's searches, checked against the traversals they replaced.

:func:`repro.model.graph.depth_first` and :func:`repro.model.graph.special_cycle`
serve the schema's FK graph (``chase_order``, ``SCH010``), the generator's
key-FK graph (``_key_fill_order``), the program's relation graph
(``stratify``, ``DLG002``) and the program's Skolem-position graph
(``TRM001``), whose chase-depth bound is now a longest-path relaxation.
The hand-written searches they replaced are copied here as oracles:

* the recursive searches of ``chase_order``, ``_key_fill_order``,
  ``stratify`` and ``find_recursion_cycle`` — same order, same first cycle,
  same error text;
* the two path searches for a cycle through a special edge, over the
  schema's attribute graph and over the program's position graph — same
  witness;
* Tarjan's strongly connected components plus the condensation DP — same
  depth bound on every graph without a special cycle.

Each holds on random digraphs with a special flag per edge (self-loops and
ordinary cycles included), on layered graphs whose bounds run deep, and on
every bundled and DEFAULT-seed schema and program.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.certify.termination import (
    ProgramDependencyGraph,
    build_program_graph,
    certify_termination,
)
from repro.core.pipeline import MappingSystem
from repro.datalog.program import DatalogProgram, Rule
from repro.datalog.stratify import (
    _closing_rule,
    dependencies,
    find_recursion_cycle,
    stratify,
)
from repro.errors import DatalogError
from repro.logic.atoms import RelationalAtom
from repro.logic.terms import Constant, SkolemTerm, Variable
from repro.model.builder import SchemaBuilder
from repro.model.graph import (
    Node,
    build_dependency_graph,
    chase_order,
    find_special_cycle,
)
from repro.scenarios import bundled_problems, generated_problems
from repro.scenarios.generator import generate_unbounded_program
from repro.scenarios.generator.instances import _key_fill_order

Position = tuple[str, int]

# ---------------------------------------------------------------------------
# The replaced searches, as oracles.


def old_find_special_cycle(schema) -> list[Node] | None:
    """The schema's special-cycle search before ``special_cycle``."""
    graph = build_dependency_graph(schema)
    adjacency: dict[Node, list[Node]] = {n: [] for n in graph.nodes}
    for a, b, _special in graph.all_edges():
        adjacency[a].append(b)

    def path(start: Node, goal: Node) -> list[Node] | None:
        """A path from start to goal (DFS), or None."""
        stack: list[tuple[Node, list[Node]]] = [(start, [start])]
        seen = {start}
        while stack:
            node, trail = stack.pop()
            if node == goal:
                return trail
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, trail + [nxt]))
        return None

    for u, v in graph.special_edges:
        back = path(v, u)
        if back is not None:
            return [u] + back
    return None


def old_chase_order(schema) -> list[str]:
    order: list[str] = []
    visited: set[str] = set()

    def visit(name: str, stack: set[str]) -> None:
        if name in visited or name in stack:
            return
        stack.add(name)
        for fk in schema.foreign_keys_of(name):
            visit(fk.referenced, stack)
        stack.discard(name)
        visited.add(name)
        order.append(name)

    for rel in schema.relation_names():
        visit(rel, set())
    return order


def old_key_fill_order(schema) -> list[str]:
    depends: dict[str, set[str]] = {r.name: set() for r in schema}
    for relation in schema:
        for key_attr in relation.key:
            fk = schema.foreign_key_from(relation.name, key_attr)
            if fk is not None:
                depends[relation.name].add(fk.referenced)
    order: list[str] = []
    done: set[str] = set()
    in_progress: set[str] = set()

    def visit(name: str) -> None:
        if name in done:
            return
        if name in in_progress:
            raise ValueError(
                f"cannot build an instance: key foreign keys of {name!r} form a cycle"
            )
        in_progress.add(name)
        for dep in sorted(depends[name]):
            visit(dep)
        in_progress.discard(name)
        done.add(name)
        order.append(name)

    for relation in schema:
        visit(relation.name)
    return order


def old_find_recursion_cycle(program):
    graph = dependencies(program)
    state: dict[str, int] = {}  # 0 = visiting, 1 = done

    def visit(name: str, trail: list[str]):
        status = state.get(name)
        if status == 1:
            return None
        if status == 0:
            cycle = trail[trail.index(name):] + [name]
            return cycle, _closing_rule(program, cycle[-2], name)
        state[name] = 0
        for dependency in sorted(graph[name]):
            found = visit(dependency, trail + [name])
            if found is not None:
                return found
        state[name] = 1
        return None

    for name in graph:
        found = visit(name, [])
        if found is not None:
            return found
    return None


def old_stratify(program) -> list[str]:
    graph = dependencies(program)
    order: list[str] = []
    state: dict[str, int] = {}  # 0 = visiting, 1 = done

    def visit(name: str, trail: list[str]) -> None:
        status = state.get(name)
        if status == 1:
            return
        if status == 0:
            cycle = trail[trail.index(name):] + [name]
            pretty = " -> ".join(cycle)
            rule = _closing_rule(program, cycle[-2], name)
            closed_by = f" (closed by rule {rule!r})" if rule is not None else ""
            from repro.analysis.diagnostics import diagnostic

            raise DatalogError(
                f"recursive Datalog program: {pretty}{closed_by}",
                diagnostic=diagnostic(
                    "DLG002",
                    f"recursive Datalog program: {pretty}{closed_by}",
                    subject=name,
                ),
            )
        state[name] = 0
        for dependency in sorted(graph[name]):
            visit(dependency, trail + [name])
        state[name] = 1
        order.append(name)

    for name in graph:
        visit(name, [])
    return order


def old_program_special_cycle(graph: ProgramDependencyGraph) -> list[Position] | None:
    adjacency: dict[Position, list[Position]] = {}
    for u, v in sorted(graph.all_edges()):
        adjacency.setdefault(u, []).append(v)
    for u, v in sorted(graph.special_edges):
        path = _old_find_path(adjacency, v, u)
        if path is not None:
            return [u] + path
    return None


def _old_find_path(adjacency, start, goal):
    stack = [(start, [start])]
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


def _old_sccs(graph: ProgramDependencyGraph) -> dict[Position, int]:
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


def old_depth_bound(graph: ProgramDependencyGraph) -> int:
    """Max special edges on any path (graph must be weakly acyclic)."""
    component = _old_sccs(graph)
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


# ---------------------------------------------------------------------------
# Random inputs: digraphs with a special flag per edge.

RELATIONS = "ABCD"


@st.composite
def random_schemas(draw):
    """A schema whose FK edges are a random digraph on its relations.

    A flagged edge is a foreign key on a key attribute: an unreferenced
    relation gains a composite-key attribute for it, a referenced one (keys
    of referenced relations stay simple) puts its first one on ``k``.
    """
    n = draw(st.integers(1, 5))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()),
        max_size=10,
    ))
    referenced = {b for _a, b, _flag in edges}
    attributes = {i: ["k"] for i in range(n)}
    keys = {i: ["k"] for i in range(n)}
    foreign_keys = []
    keyed = set()  # referenced relations whose ``k`` is a foreign key
    for a, b, on_key in edges:
        if on_key and a in referenced and a not in keyed:
            keyed.add(a)
            attribute = "k"
        else:
            attribute = f"f{len(attributes[a])}"
            attributes[a].append(attribute)
            if on_key and a not in referenced:
                keys[a].append(attribute)
        foreign_keys.append((f"R{a}", attribute, f"R{b}"))
    builder = SchemaBuilder("random")
    for i in draw(st.permutations(range(n))):
        builder.relation(f"R{i}", *attributes[i], key=keys[i])
    for foreign_key in foreign_keys:
        builder.foreign_key(*foreign_key)
    return builder.build(validate=False)


def positions(count: int):
    return st.tuples(
        st.sampled_from(RELATIONS[:count]), st.integers(0, 1)
    )


@st.composite
def random_edges(draw):
    """``(u, v, special)`` over binary-relation positions, any shape."""
    count = draw(st.integers(1, len(RELATIONS)))
    return draw(st.lists(
        st.tuples(positions(count), positions(count), st.booleans()),
        max_size=12,
    ))


@st.composite
def layered_edges(draw):
    """Edges with no special cycle: special edges climb a level, ordinary
    ones climb or stay (cycles and self-loops within a level included)."""
    nodes = [(r, i) for r in RELATIONS for i in (0, 1)]
    level = {node: draw(st.integers(0, 4)) for node in nodes}
    edges = []
    for u, v in draw(st.lists(
        st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=14
    )):
        if level[u] > level[v]:
            u, v = v, u
        edges.append((u, v, level[u] < level[v] and draw(st.booleans())))
    return edges


def program_from_edges(edges) -> DatalogProgram:
    """One rule per edge ``(ra, i) -> (rb, j)``: ``rb`` reads ``ra``, and
    its head carries ``x`` at ``j`` (special: ``f(x)``) where ``ra``'s body
    atom has ``x`` at ``i``.  So the program's position graph is the edge
    set (plus unconnected positions) and its relation graph reverses it."""
    x, y = Variable("x"), Variable("y")
    rules = []
    for (ra, i), (rb, j), special in edges:
        head = [Constant("c"), Constant("c")]
        head[j] = SkolemTerm("f", (x,)) if special else x
        body = [y, y]
        body[i] = x
        rules.append(Rule(
            head=RelationalAtom(rb, tuple(head)),
            body=(RelationalAtom(ra, tuple(body)),),
        ))
    return DatalogProgram(rules=rules)


# ---------------------------------------------------------------------------
# The checks.


def outcome(search, *args):
    """A search's result, or the text and diagnostics of what it raised."""
    try:
        return search(*args)
    except (DatalogError, ValueError) as error:
        diagnostics = [
            (item.code, item.message, item.subject)
            for item in getattr(error, "diagnostics", ())
        ]
        return type(error).__name__, str(error), diagnostics


def check_schema(schema) -> None:
    assert find_special_cycle(schema) == old_find_special_cycle(schema)
    assert chase_order(schema) == old_chase_order(schema)
    assert outcome(_key_fill_order, schema) == outcome(old_key_fill_order, schema)


def check_program(program: DatalogProgram) -> None:
    assert outcome(stratify, program) == outcome(old_stratify, program)
    assert find_recursion_cycle(program) == old_find_recursion_cycle(program)
    certificate = certify_termination(program)
    graph = build_program_graph(program)
    assert certificate.cycle == old_program_special_cycle(graph)
    if certificate.bounded:
        assert certificate.depth_bound == old_depth_bound(graph)


@settings(max_examples=400, deadline=None)
@given(random_schemas())
def test_schema_searches_match_the_replaced_ones(schema):
    check_schema(schema)


@settings(max_examples=400, deadline=None)
@given(random_edges())
def test_program_searches_match_the_replaced_ones(edges):
    check_program(program_from_edges(edges))


@settings(max_examples=300, deadline=None)
@given(layered_edges())
def test_depth_bound_matches_the_condensation_dp(edges):
    program = program_from_edges(edges)
    certificate = certify_termination(program)
    assert certificate.bounded
    assert certificate.depth_bound == old_depth_bound(build_program_graph(program))
    check_program(program)


def test_deep_bound_through_an_ordinary_cycle():
    """Three special edges in a row, an ordinary cycle in the middle."""
    edges = [
        (("A", 0), ("B", 0), True),
        (("B", 0), ("B", 1), False),
        (("B", 1), ("B", 0), False),
        (("B", 1), ("C", 0), True),
        (("C", 0), ("D", 0), True),
    ]
    program = program_from_edges(edges)
    assert certify_termination(program).depth_bound == 3
    check_program(program)


@pytest.fixture(scope="module")
def corpus():
    problems = {**bundled_problems(), **generated_problems(range(200))}
    programs = {
        f"unbounded-{seed}": generate_unbounded_program(seed) for seed in range(3)
    }
    for name, problem in problems.items():
        result = MappingSystem(problem).query_result()
        programs[f"{name}:unoptimized"] = result.unoptimized
        programs[f"{name}:optimized"] = result.program
    return problems, programs


def test_bundled_and_default_seed_schemas(corpus):
    problems, _programs = corpus
    for problem in problems.values():
        check_schema(problem.source_schema)
        check_schema(problem.target_schema)


def test_bundled_and_default_seed_programs(corpus):
    _problems, programs = corpus
    for program in programs.values():
        check_program(program)
