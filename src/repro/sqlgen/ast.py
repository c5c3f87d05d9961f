"""A typed SQL AST with a deterministic, dialect-parameterized renderer.

The SQL backend used to build statements by string concatenation; everything
it emits is now a tree of the nodes below, rendered at the last moment for a
concrete :class:`Dialect`.  The structure exists for two reasons:

* **dialect safety** — constructs whose spelling differs between engines
  (null-safe equality is ``a IS b`` on SQLite but ``a IS NOT DISTINCT FROM
  b`` on DuckDB) are dedicated nodes (:class:`NullSafeEq`,
  :class:`NullSafeNe`) rendered per dialect, instead of SQLite-isms baked
  into strings;
* **translation validation** — :mod:`repro.analysis.sqlcheck` lowers these
  trees back into conjunctive queries and proves each emitted statement
  equivalent to the Datalog rule it was compiled from.  Strings cannot be
  lowered; trees can.

Invented values (labeled nulls) are encoded as strings by a *canonical
expression shape* built with :func:`skolem_encode` and recognized back by
:func:`match_skolem_encode`: a concatenation of the ``\\x02functor(`` prefix
and length-prefixed argument encodings (see :mod:`repro.sqlgen.values` for
the value-level counterpart).  The length prefixes make the encoding
injective — ``f('x,y')`` and ``f('x','y')`` render differently — which is
exactly what diagnostic ``SQL003`` checks for hand-built trees.

Rendering is deterministic: node order is the construction order, no
hashing, no sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..errors import QueryGenerationError

#: Marks an encoded invented value (kept in sync with repro.sqlgen.values).
INVENTED_PREFIX = "\x02"


# -- dialects --------------------------------------------------------------


@dataclass(frozen=True)
class Dialect:
    """Everything the renderer needs to know about one SQL engine.

    ``null_safe_eq`` / ``null_safe_ne`` are the infix spellings of null-safe
    (dis)equality: comparisons under which NULL compares equal to NULL and
    unequal to every other value — the paper's semantics for the unlabeled
    null.  ``ifnull`` names the two-argument coalescing function.
    """

    name: str
    null_safe_eq: str
    null_safe_ne: str
    ifnull: str

    def quote(self, identifier: str) -> str:
        """Quote an SQL identifier (doubling embedded quotes)."""
        return '"' + identifier.replace('"', '""') + '"'


#: SQLite: ``IS`` is general null-safe equality (a documented SQLite
#: extension; on other engines ``IS`` only accepts NULL / boolean literals).
SQLITE = Dialect(
    name="sqlite", null_safe_eq="IS", null_safe_ne="IS NOT", ifnull="IFNULL"
)

#: DuckDB speaks the standard spelling.
DUCKDB = Dialect(
    name="duckdb",
    null_safe_eq="IS NOT DISTINCT FROM",
    null_safe_ne="IS DISTINCT FROM",
    ifnull="COALESCE",
)

DIALECTS: dict[str, Dialect] = {d.name: d for d in (SQLITE, DUCKDB)}


def dialect_named(name: str) -> Dialect:
    try:
        return DIALECTS[name]
    except KeyError:
        raise QueryGenerationError(
            f"unknown SQL dialect {name!r}: expected one of {sorted(DIALECTS)}"
        ) from None


# -- literals --------------------------------------------------------------


def sql_literal(value: object) -> str:
    """Render a Python value as an SQL literal.

    ``bool`` is checked before ``int`` (it is a subclass: ``str(True)`` would
    otherwise leak the bare token ``True`` into the statement) and rendered
    as the integer SQLite stores for it.  Non-finite floats have no portable
    literal: infinities render as out-of-range decimals (which both SQLite
    and DuckDB read back as ±Inf) and NaN is rejected — NaN compares equal
    to nothing, so a NaN constant in a rule can never match and almost
    certainly marks a bug upstream.
    """
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isnan(value):
            raise QueryGenerationError(
                "cannot render NaN as an SQL literal (it compares equal to "
                "nothing, including itself)"
            )
        if math.isinf(value):
            return "9e999" if value > 0 else "-9e999"
        return repr(value)
    if isinstance(value, int):
        return str(value)
    text = str(value).replace("'", "''")
    return f"'{text}'"


# -- expressions -----------------------------------------------------------


class SqlExpr:
    """Base class of scalar expressions."""

    __slots__ = ()

    def render(self, dialect: Dialect) -> str:
        raise NotImplementedError

    def children(self) -> tuple["SqlExpr", ...]:
        return ()

    def walk(self) -> Iterator["SqlExpr"]:
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Col(SqlExpr):
    """A column reference ``alias.column``."""

    alias: str
    column: str

    def render(self, dialect: Dialect) -> str:
        return f"{self.alias}.{dialect.quote(self.column)}"


@dataclass(frozen=True)
class Lit(SqlExpr):
    """A literal constant (rendered via :func:`sql_literal`)."""

    value: object

    def render(self, dialect: Dialect) -> str:
        return sql_literal(self.value)


@dataclass(frozen=True)
class NullLit(SqlExpr):
    """The SQL ``NULL`` literal."""

    def render(self, dialect: Dialect) -> str:
        return "NULL"


@dataclass(frozen=True)
class Cast(SqlExpr):
    """``CAST(expr AS type)``."""

    expr: SqlExpr
    type: str = "TEXT"

    def render(self, dialect: Dialect) -> str:
        return f"CAST({self.expr.render(dialect)} AS {self.type})"

    def children(self) -> tuple[SqlExpr, ...]:
        return (self.expr,)


@dataclass(frozen=True)
class Func(SqlExpr):
    """A scalar function call ``NAME(arg, ...)``."""

    name: str
    args: tuple[SqlExpr, ...]

    def render(self, dialect: Dialect) -> str:
        inner = ", ".join(a.render(dialect) for a in self.args)
        return f"{self.name}({inner})"

    def children(self) -> tuple[SqlExpr, ...]:
        return self.args


@dataclass(frozen=True)
class IfNull(SqlExpr):
    """Two-argument coalescing (``IFNULL`` on SQLite, ``COALESCE`` on DuckDB)."""

    expr: SqlExpr
    default: SqlExpr

    def render(self, dialect: Dialect) -> str:
        return (
            f"{dialect.ifnull}({self.expr.render(dialect)}, "
            f"{self.default.render(dialect)})"
        )

    def children(self) -> tuple[SqlExpr, ...]:
        return (self.expr, self.default)


@dataclass(frozen=True)
class Concat(SqlExpr):
    """String concatenation with ``||`` (NULL-propagating on both dialects)."""

    parts: tuple[SqlExpr, ...]

    def render(self, dialect: Dialect) -> str:
        return " || ".join(p.render(dialect) for p in self.parts)

    def children(self) -> tuple[SqlExpr, ...]:
        return self.parts


@dataclass(frozen=True)
class CaseWhen(SqlExpr):
    """``CASE WHEN condition THEN then ELSE otherwise END``."""

    condition: "SqlPred"
    then: SqlExpr
    otherwise: SqlExpr

    def render(self, dialect: Dialect) -> str:
        return (
            f"CASE WHEN {self.condition.render(dialect)} "
            f"THEN {self.then.render(dialect)} "
            f"ELSE {self.otherwise.render(dialect)} END"
        )

    def children(self) -> tuple[SqlExpr, ...]:
        return self.condition.expr_children() + (self.then, self.otherwise)


# -- predicates ------------------------------------------------------------


class SqlPred:
    """Base class of boolean predicates."""

    __slots__ = ()

    def render(self, dialect: Dialect) -> str:
        raise NotImplementedError

    def expr_children(self) -> tuple[SqlExpr, ...]:
        return ()

    def pred_children(self) -> tuple["SqlPred", ...]:
        return ()

    def walk(self) -> Iterator["SqlPred"]:
        yield self
        for child in self.pred_children():
            yield from child.walk()


@dataclass(frozen=True)
class Cmp(SqlPred):
    """A raw infix comparison ``left op right``.

    ``op`` is emitted verbatim; preferring :class:`NullSafeEq` /
    :class:`NullSafeNe` keeps statements portable (``Cmp("IS", a, b)``
    between computed expressions is the SQLite-only construct ``SQL002``
    flags).
    """

    op: str
    left: SqlExpr
    right: SqlExpr

    def render(self, dialect: Dialect) -> str:
        return (
            f"{self.left.render(dialect)} {self.op} {self.right.render(dialect)}"
        )

    def expr_children(self) -> tuple[SqlExpr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class NullSafeEq(SqlPred):
    """Null-safe equality, spelled per dialect."""

    left: SqlExpr
    right: SqlExpr

    def render(self, dialect: Dialect) -> str:
        return (
            f"{self.left.render(dialect)} {dialect.null_safe_eq} "
            f"{self.right.render(dialect)}"
        )

    def expr_children(self) -> tuple[SqlExpr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class NullSafeNe(SqlPred):
    """Null-safe disequality, spelled per dialect."""

    left: SqlExpr
    right: SqlExpr

    def render(self, dialect: Dialect) -> str:
        return (
            f"{self.left.render(dialect)} {dialect.null_safe_ne} "
            f"{self.right.render(dialect)}"
        )

    def expr_children(self) -> tuple[SqlExpr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class IsNull(SqlPred):
    """``expr IS [NOT] NULL`` (portable: the operand of ``IS`` is a literal)."""

    expr: SqlExpr
    negated: bool = False

    def render(self, dialect: Dialect) -> str:
        op = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.expr.render(dialect)} {op}"

    def expr_children(self) -> tuple[SqlExpr, ...]:
        return (self.expr,)


@dataclass(frozen=True)
class NotExists(SqlPred):
    """``NOT EXISTS (subquery)`` — the translation of safe negation."""

    select: "Select"

    def render(self, dialect: Dialect) -> str:
        return f"NOT EXISTS ({self.select.render(dialect)})"

    def expr_children(self) -> tuple[SqlExpr, ...]:
        return tuple(
            expr
            for item in self.select.items
            for expr in (item.expr,)
        ) + tuple(
            expr
            for pred in self.select.where
            for expr in pred.expr_children()
        )

    def pred_children(self) -> tuple[SqlPred, ...]:
        return tuple(self.select.where)


# -- statements ------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One SELECT-list entry ``expr AS alias``."""

    expr: SqlExpr
    alias: str | None = None

    def render(self, dialect: Dialect) -> str:
        rendered = self.expr.render(dialect)
        if self.alias is not None:
            rendered += f" AS {dialect.quote(self.alias)}"
        return rendered


@dataclass(frozen=True)
class TableRef:
    """A FROM-list entry ``"name" alias``."""

    name: str
    alias: str

    def render(self, dialect: Dialect) -> str:
        return f"{dialect.quote(self.name)} {self.alias}"


@dataclass(frozen=True)
class Select:
    """``SELECT [DISTINCT] items FROM froms WHERE w1 AND w2 AND ...``."""

    items: tuple[SelectItem, ...]
    froms: tuple[TableRef, ...]
    where: tuple[SqlPred, ...] = ()
    distinct: bool = False

    def render(self, dialect: Dialect) -> str:
        keyword = "SELECT DISTINCT" if self.distinct else "SELECT"
        select_list = ", ".join(item.render(dialect) for item in self.items)
        sql = f"{keyword} {select_list}"
        if self.froms:
            from_list = ", ".join(t.render(dialect) for t in self.froms)
            sql += f" FROM {from_list}"
        if self.where:
            sql += " WHERE " + " AND ".join(
                p.render(dialect) for p in self.where
            )
        return sql

    def predicates(self) -> Iterator[SqlPred]:
        """All predicates of this select, subqueries included."""
        for pred in self.where:
            yield from pred.walk()

    def expressions(self) -> Iterator[SqlExpr]:
        """All expressions of this select, predicates and subqueries included."""
        for item in self.items:
            yield from item.expr.walk()
        for pred in self.predicates():
            for expr in pred.expr_children():
                yield from expr.walk()


class SqlStatement:
    """Base class of executable statements."""

    __slots__ = ()

    def render(self, dialect: Dialect) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class CreateTable(SqlStatement):
    """``CREATE TABLE name (col type, ..., UNIQUE (col, ...))`` — used for
    intermediates; the ``UNIQUE`` spans every column in order."""

    name: str
    columns: tuple[tuple[str, str], ...]  # (column name, type)

    def render(self, dialect: Dialect) -> str:
        parts = [f"{dialect.quote(column)} {type_}" for column, type_ in self.columns]
        names = ", ".join(dialect.quote(column) for column, _ in self.columns)
        parts.append(f"UNIQUE ({names})")
        return f"CREATE TABLE {dialect.quote(self.name)} ({', '.join(parts)})"


#: Dedup policies of :class:`InsertSelect`.  ``"except"`` subtracts the
#: rows already present (SQL set operations treat NULLs as equal, like the
#: engine), which keeps set semantics across the several rules feeding one
#: relation.  ``None`` is a plain INSERT — only safe for the first write.
EXCEPT_DEDUP = "except"


@dataclass(frozen=True)
class InsertSelect(SqlStatement):
    """``INSERT INTO table SELECT ... [EXCEPT SELECT * FROM table]``."""

    table: str
    select: Select
    dedup: str | None = EXCEPT_DEDUP

    def render(self, dialect: Dialect) -> str:
        table = dialect.quote(self.table)
        sql = f"INSERT INTO {table} {self.select.render(dialect)}"
        if self.dedup == EXCEPT_DEDUP:
            sql += f" EXCEPT SELECT * FROM {table}"
        return sql


# -- the canonical invented-value encoding ---------------------------------


def _length_prefixed(text_expr: SqlExpr) -> SqlExpr:
    """``CAST(LENGTH(t) AS TEXT) || ':' || t`` for an already-TEXT operand."""
    return Concat(
        (
            Cast(Func("LENGTH", (text_expr,)), "TEXT"),
            Lit(":"),
            text_expr,
        )
    )


def skolem_argument(expr: SqlExpr) -> SqlExpr:
    """The canonical encoding of one Skolem-functor argument.

    NULL arguments encode as the bare token ``null``; everything else is
    cast to TEXT and *length-prefixed* (``<len>:<text>``), so argument
    boundaries are unambiguous — no separator that could occur inside a
    value is trusted.  Mirrors ``repro.sqlgen.values._encode_argument``.
    """
    text = Cast(expr, "TEXT")
    return CaseWhen(
        condition=IsNull(expr),
        then=Lit("null"),
        otherwise=_length_prefixed(text),
    )


def skolem_encode(functor: str, args: Sequence[SqlExpr]) -> SqlExpr:
    """The canonical expression computing an encoded invented value.

    The shape is fixed — ``'\\x02f(' || arg1 || ',' || ... || ')'`` with
    each ``argN`` built by :func:`skolem_argument` — because
    :func:`match_skolem_encode` (and through it the ``sqlcheck`` validator)
    recognizes exactly this shape when lowering statements back to logic.
    """
    if not args:
        return Lit(f"{INVENTED_PREFIX}{functor}()")
    parts: list[SqlExpr] = [Lit(f"{INVENTED_PREFIX}{functor}(")]
    for position, arg in enumerate(args):
        if position:
            parts.append(Lit(","))
        parts.append(skolem_argument(arg))
    parts.append(Lit(")"))
    return Concat(tuple(parts))


def _match_skolem_argument(expr: SqlExpr) -> SqlExpr | None:
    """The argument expression of a canonical :func:`skolem_argument`, or None."""
    if not isinstance(expr, CaseWhen):
        return None
    if not isinstance(expr.condition, IsNull) or expr.condition.negated:
        return None
    if expr.then != Lit("null"):
        return None
    subject = expr.condition.expr
    otherwise = expr.otherwise
    if not isinstance(otherwise, Concat) or len(otherwise.parts) != 3:
        return None
    length, colon, text = otherwise.parts
    if colon != Lit(":") or text != Cast(subject, "TEXT"):
        return None
    if length != Cast(Func("LENGTH", (Cast(subject, "TEXT"),)), "TEXT"):
        return None
    return subject


def match_skolem_encode(expr: SqlExpr) -> tuple[str, tuple[SqlExpr, ...]] | None:
    """Recognize the canonical invented-value encoding.

    Returns ``(functor, argument expressions)`` when ``expr`` is exactly the
    shape :func:`skolem_encode` produces, ``None`` otherwise.  This is the
    inverse the translation validator relies on: the functor and arguments
    are reconstructed from the *structure* of the emitted SQL, not from any
    side channel.
    """
    if isinstance(expr, Lit):
        value = expr.value
        if (
            isinstance(value, str)
            and value.startswith(INVENTED_PREFIX)
            and value.endswith("()")
            and "(" not in value[1:-2]
        ):
            return value[1:-2], ()
        return None
    if not isinstance(expr, Concat) or len(expr.parts) < 3:
        return None
    prefix, *middle, suffix = expr.parts
    if suffix != Lit(")"):
        return None
    if not isinstance(prefix, Lit) or not isinstance(prefix.value, str):
        return None
    head = prefix.value
    if not head.startswith(INVENTED_PREFIX) or not head.endswith("("):
        return None
    functor = head[1:-1]
    args: list[SqlExpr] = []
    expect_argument = True
    for part in middle:
        if expect_argument:
            argument = _match_skolem_argument(part)
            if argument is None:
                return None
            args.append(argument)
            expect_argument = False
        else:
            if part != Lit(","):
                return None
            expect_argument = True
    if expect_argument:  # trailing separator, or no argument at all
        return None
    return functor, tuple(args)


def looks_like_skolem_encoding(expr: SqlExpr) -> bool:
    """Heuristic: is ``expr`` *trying* to encode an invented value?

    True for any literal or concatenation whose leading literal starts with
    the invented-value prefix.  ``SQL003`` fires on expressions for which
    this is true but :func:`match_skolem_encode` fails — an encoding that
    merely joins arguments with a separator is ambiguous (``f('x,y')`` vs
    ``f('x','y')``) and merges distinct invented values.
    """
    if isinstance(expr, Lit):
        return isinstance(expr.value, str) and expr.value.startswith(
            INVENTED_PREFIX
        )
    if isinstance(expr, Concat) and expr.parts:
        first = expr.parts[0]
        return isinstance(first, Lit) and isinstance(first.value, str) and (
            first.value.startswith(INVENTED_PREFIX)
        )
    return False
