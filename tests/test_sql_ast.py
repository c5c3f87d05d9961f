"""Tests for the typed SQL AST: literals, dialects, Skolem encoding."""

import pytest

from repro.core.pipeline import MappingSystem
from repro.errors import QueryGenerationError
from repro.model.values import NULL, LabeledNull
from repro.scenarios.composite import enrollment_problem
from repro.sqlgen.ast import (
    Cmp,
    Col,
    CreateTable,
    DUCKDB,
    InsertSelect,
    IsNull,
    Lit,
    NotExists,
    NullLit,
    NullSafeEq,
    NullSafeNe,
    SQLITE,
    Select,
    SelectItem,
    TableRef,
    dialect_named,
    looks_like_skolem_encoding,
    match_skolem_encode,
    skolem_encode,
    sql_literal,
)
from repro.sqlgen.queries import intermediate_tables
from repro.sqlgen.values import decode_value, encode_value


class TestSqlLiteral:
    def test_strings_quote(self):
        assert sql_literal("a'b") == "'a''b'"
        assert sql_literal("plain") == "'plain'"

    def test_integers(self):
        assert sql_literal(5) == "5"
        assert sql_literal(-3) == "-3"

    def test_bool_renders_as_integer(self):
        # bool is a subclass of int: str(True) would leak a bare token.
        assert sql_literal(True) == "1"
        assert sql_literal(False) == "0"

    def test_finite_floats(self):
        assert sql_literal(2.5) == "2.5"

    def test_infinities_render_as_out_of_range_decimals(self):
        assert sql_literal(float("inf")) == "9e999"
        assert sql_literal(float("-inf")) == "-9e999"

    def test_nan_rejected(self):
        with pytest.raises(QueryGenerationError):
            sql_literal(float("nan"))


class TestDialects:
    def test_dialect_named(self):
        assert dialect_named("sqlite") is SQLITE
        assert dialect_named("duckdb") is DUCKDB
        with pytest.raises(QueryGenerationError):
            dialect_named("oracle")

    def test_null_safe_eq_spelling(self):
        predicate = NullSafeEq(Col("t0", "a"), Col("t1", "b"))
        assert predicate.render(SQLITE) == 't0."a" IS t1."b"'
        assert predicate.render(DUCKDB) == 't0."a" IS NOT DISTINCT FROM t1."b"'

    def test_null_safe_ne_spelling(self):
        predicate = NullSafeNe(Col("t0", "a"), Lit("x"))
        assert predicate.render(SQLITE) == 't0."a" IS NOT \'x\''
        assert predicate.render(DUCKDB) == 't0."a" IS DISTINCT FROM \'x\''

    def test_is_null_is_portable(self):
        assert IsNull(Col("t0", "a")).render(SQLITE) == 't0."a" IS NULL'
        assert IsNull(Col("t0", "a")).render(DUCKDB) == 't0."a" IS NULL'
        assert (
            IsNull(Col("t0", "a"), negated=True).render(DUCKDB)
            == 't0."a" IS NOT NULL'
        )


class TestStatements:
    def _select(self):
        return Select(
            items=(SelectItem(Col("t0", "a"), "x"),),
            froms=(TableRef("R", "t0"),),
            where=(Cmp("=", Col("t0", "b"), Lit("only")),),
            distinct=True,
        )

    def test_select_rendering(self):
        sql = self._select().render(SQLITE)
        assert sql == (
            'SELECT DISTINCT t0."a" AS "x" FROM "R" t0 WHERE t0."b" = \'only\''
        )

    def test_insert_with_except_dedup(self):
        sql = InsertSelect("T", self._select()).render(SQLITE)
        assert sql.startswith('INSERT INTO "T" SELECT DISTINCT')
        assert sql.endswith('EXCEPT SELECT * FROM "T"')

    def test_insert_without_dedup(self):
        sql = InsertSelect("T", self._select(), dedup=None).render(SQLITE)
        assert "EXCEPT" not in sql

    def test_create_table(self):
        statement = CreateTable("tmp", (("c0", "TEXT"), ("c1", "TEXT")))
        expected = 'CREATE TABLE "tmp" ("c0" TEXT, "c1" TEXT, UNIQUE ("c0", "c1"))'
        assert statement.render(SQLITE) == expected
        assert statement.render(DUCKDB) == expected

    def test_intermediate_tables_are_unique(self):
        program = MappingSystem(enrollment_problem()).transformation
        assert program.intermediates == {"Mtmp": 2, "Gtmp": 2}
        assert [table.render(SQLITE) for table in intermediate_tables(program)] == [
            f'CREATE TABLE "{name}" ("c0" TEXT, "c1" TEXT, UNIQUE ("c0", "c1"))'
            for name in ("Mtmp", "Gtmp")
        ]

    def test_not_exists(self):
        subquery = Select(
            items=(SelectItem(Lit(1)),),
            froms=(TableRef("N", "n"),),
            where=(NullSafeEq(Col("n", "c0"), Col("t0", "a")),),
        )
        sql = NotExists(subquery).render(SQLITE)
        assert sql.startswith("NOT EXISTS (SELECT 1 FROM")

    def test_rendering_is_deterministic(self):
        select = self._select()
        assert {select.render(SQLITE) for _ in range(10)} == {
            select.render(SQLITE)
        }


class TestSkolemEncode:
    def test_match_roundtrip(self):
        expr = skolem_encode("f", [Col("t0", "a"), Col("t1", "b")])
        matched = match_skolem_encode(expr)
        assert matched is not None
        functor, args = matched
        assert functor == "f"
        assert args == (Col("t0", "a"), Col("t1", "b"))

    def test_match_zero_arity(self):
        expr = skolem_encode("f", [])
        assert match_skolem_encode(expr) == ("f", ())

    def test_match_nested(self):
        inner = skolem_encode("g", [Col("t0", "a")])
        expr = skolem_encode("f", [inner])
        matched = match_skolem_encode(expr)
        assert matched is not None
        assert matched[0] == "f"
        assert match_skolem_encode(matched[1][0]) == ("g", (Col("t0", "a"),))

    def test_ambiguous_concat_not_matched(self):
        # The legacy bare-separator encoding: looks like an encoding but
        # does not match the canonical shape (what SQL003 flags).
        from repro.sqlgen.ast import Cast, Concat, IfNull

        legacy = Concat(
            (
                Lit("\x02f("),
                IfNull(Cast(Col("t0", "a"), "TEXT"), Lit("null")),
                Lit(","),
                IfNull(Cast(Col("t0", "b"), "TEXT"), Lit("null")),
                Lit(")"),
            )
        )
        assert looks_like_skolem_encoding(legacy)
        assert match_skolem_encode(legacy) is None

    def test_plain_expressions_do_not_look_like_encodings(self):
        assert not looks_like_skolem_encoding(Col("t0", "a"))
        assert not looks_like_skolem_encoding(Lit("plain"))

    def test_sql_encoding_agrees_with_value_encoding(self):
        # The expression skolem_encode emits must compute exactly what
        # values.encode_value produces for the same labeled null.
        import sqlite3

        expr = skolem_encode("f", [Lit("x,y"), Lit("z")])
        computed = sqlite3.connect(":memory:").execute(
            f"SELECT {expr.render(SQLITE)}"
        ).fetchone()[0]
        assert computed == encode_value(LabeledNull("f", ("x,y", "z")))

    def test_sql_encoding_of_null_argument(self):
        import sqlite3

        expr = skolem_encode("f", [NullLit()])
        computed = sqlite3.connect(":memory:").execute(
            f"SELECT {expr.render(SQLITE)}"
        ).fetchone()[0]
        assert computed == encode_value(LabeledNull("f", (NULL,)))


class TestEncodingCollisions:
    def test_separator_in_value_does_not_collide(self):
        # The historical defect: f("x,y") and f("x","y") encoded alike.
        one = encode_value(LabeledNull("f", ("x,y",)))
        two = encode_value(LabeledNull("f", ("x", "y")))
        assert one != two
        assert decode_value(one) == LabeledNull("f", ("x,y",))
        assert decode_value(two) == LabeledNull("f", ("x", "y"))

    def test_parenthesis_values_roundtrip(self):
        value = LabeledNull("f", ("a(b", ")c("))
        assert decode_value(encode_value(value)) == value

    def test_null_literal_string_distinct_from_null(self):
        spelled = LabeledNull("f", ("null",))
        real = LabeledNull("f", (NULL,))
        assert encode_value(spelled) != encode_value(real)
        assert decode_value(encode_value(spelled)) == spelled
        assert decode_value(encode_value(real)) == real

    def test_length_prefix_shaped_values_roundtrip(self):
        value = LabeledNull("f", ("3:abc", "12"))
        assert decode_value(encode_value(value)) == value
