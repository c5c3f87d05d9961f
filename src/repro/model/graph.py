"""Foreign-key dependency graph and the weak-acyclicity test.

The paper (section 3.1) guarantees chase termination by requiring the foreign
keys to form a *weakly acyclic* set, with the dependency graph built as:

* a node for each attribute ``R.A`` of the schema;
* an ordinary edge ``R1.A1 → R2.A2`` for each foreign key ``R1.A1 ⊆ R2.A2``;
* a *special* edge ``R1.A1 ⇒ R2.A'`` for each such foreign key and every
  attribute ``A'`` of ``R2`` other than ``A2`` (the existentially generated
  positions).

The set is weakly acyclic iff no cycle goes through a special edge.
:func:`special_cycle` finds such a cycle and :func:`depth_first` orders a
graph; every dependency graph of the system (schema FKs, the generator's key
FKs, a program's relations and Skolem positions) uses these two searches.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TypeVar

from ..errors import WeakAcyclicityError
from .schema import Schema

Node = tuple[str, str]  # (relation, attribute)
N = TypeVar("N")


@dataclass
class DependencyGraph:
    """The FK dependency graph of a schema, with ordinary and special edges."""

    nodes: list[Node] = field(default_factory=list)
    ordinary_edges: list[tuple[Node, Node]] = field(default_factory=list)
    special_edges: list[tuple[Node, Node]] = field(default_factory=list)

    def all_edges(self) -> list[tuple[Node, Node, bool]]:
        """All edges as ``(src, dst, is_special)`` triples."""
        edges = [(a, b, False) for a, b in self.ordinary_edges]
        edges.extend((a, b, True) for a, b in self.special_edges)
        return edges


def build_dependency_graph(schema: Schema) -> DependencyGraph:
    """Build the paper's dependency graph for ``schema``'s foreign keys."""
    graph = DependencyGraph()
    for rel in schema:
        for attr in rel.attribute_names:
            graph.nodes.append((rel.name, attr))
    for fk in schema.foreign_keys:
        target = schema.relation(fk.referenced)
        key_attr = target.key[0]
        src: Node = (fk.relation, fk.attribute)
        graph.ordinary_edges.append((src, (fk.referenced, key_attr)))
        for other in target.attribute_names:
            if other != key_attr:
                graph.special_edges.append((src, (fk.referenced, other)))
    return graph


def find_special_cycle(schema: Schema) -> list[Node] | None:
    """Return a cycle through a special edge if one exists, else ``None``.

    The witness is ``[u, v, ..., u]`` for the first special edge ``u ⇒ v``,
    in declaration order, whose ``v`` reaches ``u`` (see :func:`special_cycle`).
    """
    graph = build_dependency_graph(schema)
    adjacency: dict[Node, list[Node]] = {n: [] for n in graph.nodes}
    for a, b, _special in graph.all_edges():
        adjacency[a].append(b)
    return special_cycle(graph.special_edges, adjacency)


def check_weak_acyclicity(schema: Schema) -> None:
    """Raise :class:`WeakAcyclicityError` if the schema is not weakly acyclic.

    The error carries the structured ``SCH010`` diagnostic (with the special
    cycle printed and the span of a foreign key starting it, when known).
    """
    cycle = find_special_cycle(schema)
    if cycle is not None:
        from ..analysis.diagnostics import diagnostic

        pretty = " -> ".join(f"{r}.{a}" for r, a in cycle)
        message = (
            f"schema {schema.name!r}: foreign keys are not weakly acyclic "
            f"(cycle through a special edge: {pretty})"
        )
        fk = schema.foreign_key_from(*cycle[0])
        raise WeakAcyclicityError(
            message,
            diagnostic=diagnostic(
                "SCH010",
                message,
                span=getattr(fk, "span", None),
                subject=schema.name,
            ),
        )


def chase_order(schema: Schema) -> list[str]:
    """Relations ordered so FK targets come before FK sources where possible.

    Used to pick deterministic processing orders; falls back to declaration
    order inside strongly connected components (which weak acyclicity keeps
    harmless for termination).
    """
    order, _cycle = depth_first(
        schema.relation_names(),
        lambda name: [fk.referenced for fk in schema.foreign_keys_of(name)],
    )
    return order


def depth_first(
    nodes: Iterable[N], successors: Callable[[N], Iterable[N]]
) -> tuple[list[N], list[N] | None]:
    """Depth-first post-order from ``nodes``, and the first cycle met.

    Roots and successors are taken in the order given.  A successor on the
    current trail closes a cycle ``[n, ..., n]``; the search skips that edge
    and goes on, so the order still lists every reachable node once.
    """
    order: list[N] = []
    done: set[N] = set()
    cycle: list[N] | None = None
    for root in nodes:
        if root in done:
            continue
        trail = {root: None}  # insertion-ordered: the path from the root
        pending = [iter(successors(root))]
        while pending:
            for succ in pending[-1]:
                if succ in done:
                    continue
                if succ in trail:
                    if cycle is None:
                        path = list(trail)
                        cycle = path[path.index(succ):] + [succ]
                    continue
                trail[succ] = None
                pending.append(iter(successors(succ)))
                break
            else:
                pending.pop()
                node, _ = trail.popitem()
                done.add(node)
                order.append(node)
    return order, cycle


def special_cycle(
    special_edges: Iterable[tuple[N, N]], adjacency: Mapping[N, Sequence[N]]
) -> list[N] | None:
    """A cycle through a special edge as ``[u, v, ..., u]``, else ``None``.

    The first special edge ``u ⇒ v``, in the given order, whose ``v``
    reaches ``u`` over ``adjacency`` (all edges) yields the witness: the
    edge, then the path a stack search in ``adjacency`` order finds back.
    """
    for u, v in special_edges:
        parent: dict[N, N | None] = {v: None}  # also the seen set
        stack = [v]
        while stack:
            node = stack.pop()
            if node == u:
                back = [node]
                while node != v:
                    node = parent[node]
                    back.append(node)
                return [u] + back[::-1]
            for succ in adjacency.get(node, ()):
                if succ not in parent:
                    parent[succ] = node
                    stack.append(succ)
    return None
