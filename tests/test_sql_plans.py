"""Plan shape of the SQL pushdown's soft-conflict anti-joins (no timing).

Soft-conflict resolution negates an intermediate relation (``OCtmp``,
``DCtmp``, ...), which the pushdown compiles to ``NOT EXISTS (SELECT 1 FROM
"OCtmp" n WHERE n."c0" IS ...)``.  Without an index on the intermediate,
SQLite scans it once per outer row and the pipeline grows quadratically.
These tests pin the linear plan: every probe of every bundled scenario with
an intermediate is an index search, never a scan, and with target
constraints enforced the indexed pipeline still agrees with the reference
interpreter (``tests/test_engine_differential.py`` checks the bare pipeline).
"""

from __future__ import annotations

import re

import pytest

from repro.analysis.semantic.verifier import canonical_instances
from repro.core.pipeline import MappingSystem
from repro.datalog.engine import evaluate
from repro.model.diff import diff_up_to_invented
from repro.scenarios import bundled_problems
from repro.sqlgen.executor import SqliteExecutor

#: Older SQLite releases spell plan rows ``SEARCH TABLE n ...``.
_PROBE_SEARCH = re.compile(r"^SEARCH (TABLE )?n USING (COVERING )?INDEX ")
_PROBE_SCAN = re.compile(r"^SCAN (TABLE )?n\b")


class _PlanRecorder(SqliteExecutor):
    """Records ``EXPLAIN QUERY PLAN`` of each anti-join before running it."""

    def __init__(self, enforce_constraints: bool = False):
        super().__init__(enforce_constraints)
        self.plans: list[tuple[str, list[str]]] = []

    def _execute(self, connection, sql, *args):
        if "NOT EXISTS" in sql:
            rows = connection.execute(f"EXPLAIN QUERY PLAN {sql}").fetchall()
            self.plans.append((sql, [row[-1] for row in rows]))
        super()._execute(connection, sql, *args)


#: Every bundled scenario whose program has an intermediate relation.
WITH_INTERMEDIATES = (
    "appendix-c4",
    "enrollment",
    "example-6-6",
    "example-6-7",
    "figure-1",
    "figure-10",
    "figure-12",
    "figure-4",
    "figure-4-ra",
    "figure-9",
    "publications",
)


def _program(name):
    return MappingSystem(bundled_problems()[name]).transformation


def test_every_scenario_with_an_intermediate_is_covered():
    with_intermediates = {
        name for name in bundled_problems() if _program(name).intermediates
    }
    assert with_intermediates == set(WITH_INTERMEDIATES)


@pytest.mark.parametrize("enforce", [False, True], ids=["bare", "enforced"])
@pytest.mark.parametrize("name", WITH_INTERMEDIATES)
def test_every_anti_join_probe_searches_an_index(name, enforce):
    program = _program(name)
    checked = 0
    for label, instance in canonical_instances(program):
        executor = _PlanRecorder(enforce_constraints=enforce)
        target = executor.run(program, instance)
        if enforce:
            diff = diff_up_to_invented(evaluate(program, instance).target, target)
            assert diff.empty, f"{name} / {label}:\n{diff.to_text()}"
        assert executor.plans, f"{name} / {label}: no NOT EXISTS statement ran"
        for sql, details in executor.plans:
            searches = [d for d in details if _PROBE_SEARCH.match(d)]
            assert len(searches) == sql.count("NOT EXISTS"), (sql, details)
            assert not any(_PROBE_SCAN.match(d) for d in details), (sql, details)
        checked += 1
    assert checked > 0, f"no canonical instance for {name!r}"
