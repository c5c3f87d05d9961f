"""Whole-program compilation of Datalog mappings into SQL pipelines.

:func:`compile_program` turns a validated :class:`DatalogProgram` into one
:class:`SqlPipeline` — intermediate DDL first, then one ``INSERT``
statement per rule, grouped by stratum in stratification order (stable
within each relation, so the pipeline is deterministic).  Every statement
keeps a handle to the rule it was compiled from plus its read/write sets;
the ``sqlcheck`` validator uses the rule to prove the round-trip and the
read/write sets to prove the ordering sound.

Statements are dialect-free trees; rendering for a concrete engine happens
only in :meth:`SqlPipeline.sql` / :meth:`CompiledStatement.sql`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..datalog.program import DatalogProgram, Rule
from .ast import Dialect, SQLITE, SqlStatement
from .queries import intermediate_tables, rule_insert


@dataclass(frozen=True)
class CompiledStatement:
    """One statement of a compiled pipeline.

    ``kind`` is ``"create"`` (intermediate DDL, ``rule`` is None) or
    ``"insert"`` (per-rule, ``rule`` is the originating Datalog rule).
    ``reads``/``writes`` are the relations the statement consumes and
    produces; ``stratum`` is the head relation's position in the
    stratification order.
    """

    kind: str
    node: SqlStatement
    stratum: int
    writes: str
    reads: tuple[str, ...] = ()
    rule: Rule | None = None

    def sql(self, dialect: Dialect = SQLITE) -> str:
        return self.node.render(dialect)


@dataclass(frozen=True)
class SqlPipeline:
    """A compiled mapping: the program plus its ordered statements."""

    program: DatalogProgram
    statements: tuple[CompiledStatement, ...] = field(default_factory=tuple)

    def sql(self, dialect: Dialect = SQLITE) -> list[str]:
        """All statements rendered for ``dialect``, in execution order."""
        return [statement.sql(dialect) for statement in self.statements]

    def inserts(self) -> list[CompiledStatement]:
        """The INSERT statements only, in execution order."""
        return [s for s in self.statements if s.kind == "insert"]


def _rule_reads(rule: Rule) -> tuple[str, ...]:
    seen: list[str] = []
    for atom in (*rule.body, *rule.negated):
        if atom.relation not in seen:
            seen.append(atom.relation)
    return tuple(seen)


def compile_program(program: DatalogProgram) -> SqlPipeline:
    """Compile ``program`` into its stratified SQL pipeline."""
    order = {name: i for i, name in enumerate(program.stratification())}
    statements: list[CompiledStatement] = [
        CompiledStatement(
            kind="create",
            node=table,
            stratum=order[table.name],
            writes=table.name,
        )
        for table in intermediate_tables(program)
    ]
    for rule in sorted(program.rules, key=lambda r: order[r.head_relation]):
        statements.append(
            CompiledStatement(
                kind="insert",
                node=rule_insert(rule, program),
                stratum=order[rule.head_relation],
                writes=rule.head_relation,
                reads=_rule_reads(rule),
                rule=rule,
            )
        )
    return SqlPipeline(program=program, statements=tuple(statements))
