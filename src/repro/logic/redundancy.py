"""The redundancy scan of implication pruning (§5, Algorithm 3) and of the
"standard query optimization" of Example 6.8: drop every covered item.  The
optimizer, the semantic minimizer and implication pruning all run it."""

from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence, TypeVar

T = TypeVar("T")


def redundant(
    items: Sequence[T], covers: Callable[[T, T], Any], key: Callable[[T], Hashable]
) -> dict[int, tuple[int, Any]]:
    """``{i: (j, evidence)}`` for every item ``i`` removed as covered by ``j``.

    Items with different keys must never cover each other, so each item, in
    order, meets only the items of its bucket, in order, skipping those
    already removed.  It is removed at the first ``j`` with a truthy
    ``evidence = covers(items[j], items[i])`` — unless ``covers(items[i],
    items[j])`` holds too and ``i < j``, tested in that order: of two
    equivalent items the earlier is kept.  For a transitive ``covers`` the
    skip changes nothing: a removed coverer is covered by a kept item.
    """
    keys = [key(item) for item in items]
    buckets: dict[Hashable, list[int]] = {}
    for index, bucket_key in enumerate(keys):
        buckets.setdefault(bucket_key, []).append(index)
    removed: dict[int, tuple[int, Any]] = {}
    for i, item in enumerate(items):
        for j in buckets[keys[i]]:
            if j == i or j in removed:
                continue
            evidence = covers(items[j], item)
            if evidence and not (covers(item, items[j]) and i < j):
                removed[i] = (j, evidence)
                break
    return removed
