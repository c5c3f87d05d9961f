"""The shared redundancy scan (:func:`repro.logic.redundancy.redundant`).

The optimizer, the semantic minimizer and implication pruning all drop
covered items through this one bucketed keep-the-earlier scan.  It is
checked against the two loops it replaced, copied here as oracles: the
optimizer's all-pairs loop and the minimizer's skip-removed loop.  Inputs
are random preorders split into random buckets, where items in different
buckets never cover each other.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.pipeline import MappingSystem
from repro.datalog import optimize
from repro.logic.redundancy import redundant
from repro.scenarios.synthetic import chain_problem

# ---------------------------------------------------------------------------
# The replaced loops, as oracles.


def all_pairs_oracle(rules, subsumes_rule):
    """The optimizer's loop: every other rule, removed or not."""
    kept = []
    for i, rule in enumerate(rules):
        redundant = False
        for j, other in enumerate(rules):
            if i == j:
                continue
            if subsumes_rule(other, rule):
                # Mutual subsumption (duplicates): keep the earlier rule.
                if subsumes_rule(rule, other) and i < j:
                    continue
                redundant = True
                break
        if not redundant:
            kept.append(rule)
    return kept


def skip_removed_oracle(rules, contained_in):
    """The minimizer's loop: already removed rules are skipped.

    ``contained_in(i, j)`` is the evidence that rule ``i`` is covered by
    rule ``j``; returns ``(kept, {i: (j, evidence)})``.
    """
    kept = []
    removed = {}
    removed_indices = set()
    for i, rule in enumerate(rules):
        certificate = None
        for j, other in enumerate(rules):
            if i == j or j in removed_indices:
                continue
            witness = contained_in(rule, other)
            if witness is None:
                continue
            if contained_in(other, rule) is not None and i < j:
                continue  # mutual containment: keep the earlier rule
            certificate = (j, witness)
            break
        if certificate is None:
            kept.append(rule)
        else:
            removed_indices.add(i)
            removed[i] = certificate
    return kept, removed


# ---------------------------------------------------------------------------
# Random bucketed preorders.


@st.composite
def bucketed_preorders(draw):
    """``(buckets, order)``: each item's bucket key, and a preorder (as the
    set of ``(bigger, smaller)`` pairs, reflexive pairs left out) that only
    relates items of one bucket."""
    n = draw(st.integers(min_value=0, max_value=9))
    buckets = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    index = st.integers(min_value=0, max_value=max(n - 1, 0))
    edges = draw(st.sets(st.tuples(index, index), max_size=3 * n)) if n else set()
    closure = {(a, b) for a, b in edges if buckets[a] == buckets[b]}
    for middle in range(n):  # Warshall: the transitive closure
        closure |= {
            (a, c)
            for a, b in closure
            if b == middle
            for b2, c in closure
            if b2 == middle
        }
    return buckets, {(a, b) for a, b in closure if a != b}


@settings(max_examples=300, deadline=None)
@given(bucketed_preorders())
def test_scan_matches_the_replaced_loops(case):
    buckets, order = case
    items = list(range(len(buckets)))
    calls = []

    def covers(big, small):
        calls.append((big, small))
        return f"{big} covers {small}" if (big, small) in order else None

    removed = redundant(items, covers, key=lambda item: buckets[item])
    scan_calls = list(calls)
    kept = [item for item in items if item not in removed]

    assert kept == all_pairs_oracle(items, covers)
    calls.clear()
    oracle_kept, oracle_removed = skip_removed_oracle(
        items, lambda small, big: covers(big, small)
    )
    assert kept == oracle_kept
    assert removed == oracle_removed
    # Never across buckets, and within them the oracle's calls in its order.
    assert all(buckets[big] == buckets[small] for big, small in scan_calls)
    assert scan_calls == [
        (big, small) for big, small in calls if buckets[big] == buckets[small]
    ]


def test_optimizer_compares_rules_of_one_head_relation(monkeypatch):
    program = MappingSystem(chain_problem(8)).query_result().unoptimized
    original = optimize.subsumes_rule
    pairs = []

    def spy(general, specific, *prepared):
        pairs.append((general.head_relation, specific.head_relation))
        return original(general, specific, *prepared)

    monkeypatch.setattr(optimize, "subsumes_rule", spy)
    optimized = optimize.remove_subsumed_rules(program)
    assert pairs and all(general == specific for general, specific in pairs)
    assert len(optimized.rules) < len(program.rules)
