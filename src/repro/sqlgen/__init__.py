"""SQL backend: typed AST, whole-program compiler, DDL emission, execution."""

from .ast import (
    DIALECTS,
    DUCKDB,
    Dialect,
    SQLITE,
    dialect_named,
    match_skolem_encode,
    skolem_encode,
    sql_literal,
)
from .compiler import CompiledStatement, SqlPipeline, compile_program
from .ddl import create_table_sql, quote_identifier, schema_ddl
from .executor import (
    DuckDbExecutor,
    ExecutionTrace,
    SqliteExecutor,
    duckdb_available,
    run_on_duckdb,
    run_on_sqlite,
)
from .queries import rule_insert, rule_select
from .values import INVENTED_PREFIX, decode_value, encode_value

__all__ = [
    "CompiledStatement",
    "DIALECTS",
    "DUCKDB",
    "Dialect",
    "DuckDbExecutor",
    "ExecutionTrace",
    "INVENTED_PREFIX",
    "SQLITE",
    "SqlPipeline",
    "SqliteExecutor",
    "compile_program",
    "create_table_sql",
    "decode_value",
    "dialect_named",
    "duckdb_available",
    "encode_value",
    "match_skolem_encode",
    "quote_identifier",
    "rule_insert",
    "rule_select",
    "run_on_duckdb",
    "run_on_sqlite",
    "schema_ddl",
    "skolem_encode",
    "sql_literal",
]
