"""Tests for the SQL backend: value encoding, DDL, translation, execution."""

import pytest
import sqlite3

from repro.core.pipeline import MappingSystem
from repro.core.schema_mapping import BASIC
from repro.errors import EvaluationError
from repro.model.values import NULL, LabeledNull
from repro.scenarios import cars
from repro.sqlgen.ddl import create_table_sql, quote_identifier, schema_ddl
from repro.sqlgen.executor import SqliteExecutor, run_on_sqlite
from repro.sqlgen.queries import program_to_sql, rule_to_sql, sql_literal
from repro.sqlgen.values import INVENTED_PREFIX, decode_value, encode_value


class TestValueEncoding:
    def test_null_roundtrip(self):
        assert encode_value(NULL) is None
        assert decode_value(None) is NULL

    def test_constant_passthrough(self):
        assert encode_value("abc") == "abc"
        assert decode_value("abc") == "abc"
        assert decode_value(42) == 42

    def test_labeled_null_roundtrip(self):
        value = LabeledNull("f_person@m2", ("c86",))
        assert decode_value(encode_value(value)) == value

    def test_multi_arg_roundtrip(self):
        value = LabeledNull("f", ("a", "b", "c"))
        assert decode_value(encode_value(value)) == value

    def test_nested_roundtrip(self):
        value = LabeledNull("g", (LabeledNull("f", ("x",)), "y"))
        assert decode_value(encode_value(value)) == value

    def test_null_argument_roundtrip(self):
        value = LabeledNull("f", (NULL,))
        assert decode_value(encode_value(value)) == value

    def test_zero_arity_roundtrip(self):
        value = LabeledNull("f", ())
        assert decode_value(encode_value(value)) == value

    def test_trailing_garbage_rejected(self):
        encoded = encode_value(LabeledNull("f", ("a",))) + "junk"
        with pytest.raises(EvaluationError):
            decode_value(encoded)

    def test_prefix_is_control_character(self):
        assert INVENTED_PREFIX == "\x02"


class TestDdl:
    def test_quote_identifier(self):
        assert quote_identifier("person") == '"person"'
        assert quote_identifier('we"ird') == '"we""ird"'

    def test_create_table_with_constraints(self, cars2):
        sql = create_table_sql(cars2.relation("C2"), cars2, enforce=True)
        assert "PRIMARY KEY" in sql
        assert "FOREIGN KEY" in sql
        assert '"model" TEXT NOT NULL' in sql
        assert '"person" TEXT,' in sql or '"person" TEXT\n' in sql  # nullable

    def test_create_table_bare(self, cars2):
        sql = create_table_sql(cars2.relation("C2"), cars2, enforce=False)
        assert "PRIMARY KEY" not in sql and "NOT NULL" not in sql

    def test_schema_ddl_order(self, cars2):
        statements = schema_ddl(cars2)
        assert statements[0].startswith('CREATE TABLE "P2"')  # FK target first

    def test_ddl_executes_on_sqlite(self, cars3):
        connection = sqlite3.connect(":memory:")
        for statement in schema_ddl(cars3):
            connection.execute(statement)
        connection.close()

    def test_literal_quoting(self):
        assert sql_literal("a'b") == "'a''b'"
        assert sql_literal(5) == "5"


class TestTranslation:
    def test_program_to_sql_statement_count(self, figure1_problem):
        program = MappingSystem(figure1_problem).transformation
        statements = program_to_sql(program)
        # 1 CREATE tmp + 4 inserts.
        assert len(statements) == 5
        assert statements[0].startswith("CREATE TABLE")

    def test_negation_becomes_not_exists(self, figure1_problem):
        program = MappingSystem(figure1_problem).transformation
        negated = next(r for r in program.rules if r.negated)
        sql = rule_to_sql(negated, program)
        assert "NOT EXISTS" in sql

    def test_null_condition_translation(self):
        problem = cars.figure14_problem()
        program = MappingSystem(problem).transformation
        statements = program_to_sql(program)
        assert any("IS NULL" in s for s in statements)
        assert any("IS NOT NULL" in s for s in statements)

    def test_skolem_expression(self):
        problem = cars.figure10_problem()
        program = MappingSystem(problem).transformation
        statements = "\n".join(program_to_sql(program))
        # Length-prefixed functor argument expression (see ast.skolem_argument).
        assert "CASE WHEN" in statements
        assert "LENGTH(CAST(" in statements


class TestExecutorParity:
    """The SQLite backend must agree with the Datalog engine everywhere."""

    SCENARIOS = [
        (cars.figure1_problem, cars.cars3_source_instance, "novel"),
        (cars.figure1_problem, cars.cars3_source_instance, "basic"),
        (cars.figure4_problem, cars.cars3_source_instance, "novel"),
        (cars.figure4_ra_problem, cars.cars3_source_instance, "novel"),
        (cars.figure7_problem, cars.figure8_source_instance, "basic"),
        (cars.figure9_problem, cars.cars3_source_instance, "novel"),
        (cars.figure10_problem, cars.cars3_source_instance, "novel"),
        (cars.figure12_problem, cars.figure13_source_instance, "novel"),
        (cars.figure14_problem, cars.figure15_source_instance, "novel"),
    ]

    @pytest.mark.parametrize("make_problem,make_instance,algorithm", SCENARIOS)
    def test_parity(self, make_problem, make_instance, algorithm):
        problem = make_problem()
        system = MappingSystem(problem, algorithm=algorithm)
        source = make_instance()
        engine_output = system.transform(source)
        sql_output = run_on_sqlite(system.transformation, source)
        assert sql_output == engine_output, problem.name


class TestConstraintEnforcement:
    def test_novel_output_loads_with_constraints(self, figure1_problem, cars3_instance):
        system = MappingSystem(figure1_problem)
        result = run_on_sqlite(
            system.transformation, cars3_instance, enforce_constraints=True
        )
        assert result == system.transform(cars3_instance)

    def test_basic_output_violates_constraints(self, figure1_problem, cars3_instance):
        # Figure 2's duplicate key on C2: the paper's motivating defect,
        # caught by the real database.
        system = MappingSystem(figure1_problem, algorithm=BASIC)
        with pytest.raises(sqlite3.IntegrityError):
            run_on_sqlite(
                system.transformation, cars3_instance, enforce_constraints=True
            )

    def test_trace_records_statements(self, figure1_problem, cars3_instance):
        system = MappingSystem(figure1_problem)
        executor = SqliteExecutor()
        executor.run(system.transformation, cars3_instance)
        assert any("INSERT INTO" in s for s in executor.trace.statements)
        assert any(s.startswith("CREATE TABLE") for s in executor.trace.statements)

    def test_trace_records_one_source_insert_per_relation(
        self, figure1_problem, cars3_instance
    ):
        system = MappingSystem(figure1_problem)
        executor = SqliteExecutor()
        executor.run(system.transformation, cars3_instance)
        loads = [s for s in executor.trace.statements if " VALUES (" in s]
        expected = [
            f"INSERT INTO {quote_identifier(name)} VALUES "
            f"({', '.join(['?'] * relation.schema.arity)})"
            for name, relation in cars3_instance.relations.items()
            if relation
        ]
        assert expected and loads == expected
