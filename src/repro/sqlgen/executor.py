"""Execution of compiled pipelines on SQLite (and, when installed, DuckDB).

:class:`SqliteExecutor` materializes the source instance, runs the compiled
SQL pipeline of a generated Datalog program (see
:mod:`repro.sqlgen.compiler`), and reads the target instance back (decoding
invented values).  With ``enforce_constraints=True`` the target tables carry
their real PRIMARY KEY / NOT NULL / FOREIGN KEY declarations, so a
transformation that violates them — like the basic algorithms on Figure 2 —
fails with :class:`sqlite3.IntegrityError`; the novel algorithms' output
loads cleanly.  That check is itself one of the paper's claims, exercised by
the tests and benchmarks.

:class:`DuckDbExecutor` runs the same pipeline rendered for the DuckDB
dialect.  DuckDB is an optional dependency: import is deferred, and callers
should gate on :func:`duckdb_available` (tests and CI skip when missing).
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from typing import Any

from ..errors import EvaluationError
from ..model.instance import Instance
from ..model.schema import Schema
from ..datalog.program import DatalogProgram
from .ast import DUCKDB, Dialect, SQLITE
from .compiler import compile_program
from .ddl import quote_identifier, schema_ddl
from .values import decode_value, encode_value


@dataclass
class ExecutionTrace:
    """The statements an execution ran, for inspection and documentation.

    A source relation is loaded with one parameterised ``INSERT`` run over
    all its rows, recorded once.
    """

    statements: list[str] = field(default_factory=list)


class _PipelineExecutor:
    """Shared machinery: load source, run pipeline, read target back."""

    dialect: Dialect

    def __init__(self, enforce_constraints: bool = False):
        self.enforce_constraints = enforce_constraints
        self.trace = ExecutionTrace()

    # Connections are duck-typed: sqlite3 and duckdb both expose
    # execute/close on their connection objects.
    def _connect(self) -> Any:
        raise NotImplementedError

    def _prepare(self, connection: Any) -> None:
        """Dialect-specific session setup (e.g. PRAGMAs)."""

    def _execute(self, connection: Any, sql: str, *args: Any) -> None:
        self.trace.statements.append(sql)
        connection.execute(sql, *args)

    def _load_instance(self, connection: Any, instance: Instance) -> None:
        for statement in schema_ddl(instance.schema, enforce=False):
            self._execute(connection, statement)
        for name, relation in instance.relations.items():
            if not relation:
                continue
            placeholders = ", ".join(["?"] * relation.schema.arity)
            sql = f"INSERT INTO {quote_identifier(name)} VALUES ({placeholders})"
            self.trace.statements.append(sql)
            connection.executemany(
                sql, [tuple(encode_value(v) for v in row) for row in relation]
            )

    def run(self, program: DatalogProgram, source: Instance) -> Instance:
        """Execute the compiled pipeline and return the decoded target instance."""
        target_schema = program.target_schema
        if not isinstance(target_schema, Schema):
            raise EvaluationError("program has no target schema")
        program.validate()
        pipeline = compile_program(program)
        self.trace = ExecutionTrace()
        connection = self._connect()
        try:
            self._prepare(connection)
            self._load_instance(connection, source)
            for statement in schema_ddl(target_schema, enforce=self.enforce_constraints):
                self._execute(connection, statement)
            for statement in pipeline.sql(self.dialect):
                self._execute(connection, statement)
            connection.commit()
            return self._read_target(connection, target_schema)
        finally:
            connection.close()

    def _read_target(self, connection: Any, target_schema: Schema) -> Instance:
        instance = Instance(target_schema)
        for relation in target_schema:
            columns = ", ".join(quote_identifier(a) for a in relation.attribute_names)
            cursor = connection.execute(
                f"SELECT {columns} FROM {quote_identifier(relation.name)}"
            )
            for row in cursor.fetchall():
                instance.add(relation.name, tuple(decode_value(v) for v in row))
        return instance


class SqliteExecutor(_PipelineExecutor):
    """Runs a compiled pipeline inside an in-memory SQLite database."""

    dialect = SQLITE

    def _connect(self) -> sqlite3.Connection:
        return sqlite3.connect(":memory:")

    def _prepare(self, connection: sqlite3.Connection) -> None:
        if self.enforce_constraints:
            self._execute(connection, "PRAGMA foreign_keys = ON")


def duckdb_available() -> bool:
    """Whether the optional ``duckdb`` package is importable."""
    try:
        import duckdb  # noqa: F401
    except ImportError:
        return False
    return True


class DuckDbExecutor(_PipelineExecutor):
    """Runs a compiled pipeline inside an in-memory DuckDB database.

    Requires the optional ``duckdb`` package; constructing the executor
    raises :class:`EvaluationError` when it is missing — gate callers on
    :func:`duckdb_available`.
    """

    dialect = DUCKDB

    def __init__(self, enforce_constraints: bool = False):
        if not duckdb_available():
            raise EvaluationError(
                "the duckdb package is not installed; "
                "gate on repro.sqlgen.duckdb_available()"
            )
        super().__init__(enforce_constraints)

    def _connect(self) -> Any:
        import duckdb

        return duckdb.connect(":memory:")


def run_on_sqlite(
    program: DatalogProgram, source: Instance, enforce_constraints: bool = False
) -> Instance:
    """Convenience wrapper around :class:`SqliteExecutor`."""
    return SqliteExecutor(enforce_constraints).run(program, source)


def run_on_duckdb(
    program: DatalogProgram, source: Instance, enforce_constraints: bool = False
) -> Instance:
    """Convenience wrapper around :class:`DuckDbExecutor` (optional dep)."""
    return DuckDbExecutor(enforce_constraints).run(program, source)
