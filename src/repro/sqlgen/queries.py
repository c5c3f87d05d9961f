"""Translation of generated Datalog rules to SQL ASTs.

Each rule becomes an ``INSERT INTO ... SELECT DISTINCT ...`` over a join of
the body atoms; negated atoms become ``NOT EXISTS`` subqueries; null and
non-null conditions become ``IS NULL`` / ``IS NOT NULL``; Skolem terms
become the canonical string expression encoding the invented value (see
:func:`repro.sqlgen.ast.skolem_encode` and :mod:`repro.sqlgen.values`).

Join and equality predicates are :class:`~repro.sqlgen.ast.NullSafeEq`
nodes because, in the paper's semantics, the unlabeled null is an ordinary
value — two null foreign keys join like any other pair of equal values.
The node renders as SQLite's null-safe ``IS`` or DuckDB's standard
``IS NOT DISTINCT FROM`` depending on the dialect.

The string-level entry points (:func:`rule_to_sql`, :func:`program_to_sql`,
:func:`intermediate_ddl`) are thin renderings of the AST builders; the
whole-program pipeline lives in :mod:`repro.sqlgen.compiler`.
"""

from __future__ import annotations

from ..errors import QueryGenerationError
from ..logic.atoms import RelationalAtom
from ..logic.terms import Constant, NullTerm, SkolemTerm, Term, Variable
from ..datalog.program import DatalogProgram, Rule
from .ast import (
    Cmp,
    Col,
    CreateTable,
    Dialect,
    InsertSelect,
    IsNull,
    Lit,
    NotExists,
    NullLit,
    NullSafeEq,
    NullSafeNe,
    Select,
    SelectItem,
    SQLITE,
    SqlExpr,
    SqlPred,
    TableRef,
    skolem_encode,
    sql_literal,
)

__all__ = [
    "sql_literal",
    "relation_columns",
    "rule_select",
    "rule_insert",
    "rule_to_sql",
    "intermediate_tables",
    "intermediate_ddl",
    "program_to_sql",
]


def relation_columns(program: DatalogProgram, relation: str) -> list[str]:
    """The column names of ``relation`` as the SQL backend sees them."""
    for schema in (program.source_schema, program.target_schema):
        if schema is not None and relation in schema:
            return list(schema.relation(relation).attribute_names)
    if relation in program.intermediates:
        return [f"c{i}" for i in range(program.intermediates[relation])]
    raise QueryGenerationError(f"unknown relation {relation!r} in SQL translation")


class _RuleTranslator:
    """Builds the SELECT tree for one rule."""

    def __init__(self, rule: Rule, program: DatalogProgram):
        self.rule = rule
        self.program = program
        self.froms: list[TableRef] = []
        self.var_column: dict[Variable, Col] = {}
        self.predicates: list[SqlPred] = []
        self._bind_body()

    def _bind_body(self) -> None:
        for index, atom in enumerate(self.rule.body):
            alias = f"t{index}"
            self.froms.append(TableRef(atom.relation, alias))
            columns = relation_columns(self.program, atom.relation)
            for position, term in enumerate(atom.terms):
                reference = Col(alias, columns[position])
                if isinstance(term, Variable):
                    existing = self.var_column.get(term)
                    if existing is None:
                        self.var_column[term] = reference
                    else:
                        self.predicates.append(NullSafeEq(reference, existing))
                elif isinstance(term, Constant):
                    self.predicates.append(
                        Cmp("=", reference, Lit(term.value))
                    )
                elif isinstance(term, NullTerm):
                    self.predicates.append(IsNull(reference))
                else:  # pragma: no cover - Skolem terms never occur in bodies
                    raise QueryGenerationError(f"Skolem term in rule body: {term!r}")

    def term_expression(self, term: Term) -> SqlExpr:
        """The expression tree computing one head term."""
        if isinstance(term, Variable):
            try:
                return self.var_column[term]
            except KeyError:
                raise QueryGenerationError(f"unbound head variable {term!r}") from None
        if isinstance(term, Constant):
            return Lit(term.value)
        if isinstance(term, NullTerm):
            return NullLit()
        if isinstance(term, SkolemTerm):
            return skolem_encode(
                term.functor, [self.term_expression(a) for a in term.args]
            )
        raise QueryGenerationError(f"cannot translate term {term!r}")  # pragma: no cover

    def _negation_predicate(self, atom: RelationalAtom) -> NotExists:
        columns = relation_columns(self.program, atom.relation)
        alias = "n"
        conditions = tuple(
            NullSafeEq(Col(alias, columns[position]), self.term_expression(term))
            for position, term in enumerate(atom.terms)
        )
        return NotExists(
            Select(
                items=(SelectItem(Lit(1)),),
                froms=(TableRef(atom.relation, alias),),
                where=conditions,
            )
        )

    def select(self) -> Select:
        columns = relation_columns(self.program, self.rule.head.relation)
        items = tuple(
            SelectItem(self.term_expression(term), column)
            for term, column in zip(self.rule.head.terms, columns)
        )
        predicates = list(self.predicates)
        for var in self.rule.null_vars:
            predicates.append(IsNull(self.var_column[var]))
        for var in self.rule.nonnull_vars:
            predicates.append(IsNull(self.var_column[var], negated=True))
        for equality in self.rule.equalities:
            predicates.append(
                NullSafeEq(
                    self.term_expression(equality.left),
                    self.term_expression(equality.right),
                )
            )
        for disequality in self.rule.disequalities:
            predicates.append(
                NullSafeNe(
                    self.term_expression(disequality.left),
                    self.term_expression(disequality.right),
                )
            )
        for atom in self.rule.negated:
            predicates.append(self._negation_predicate(atom))
        return Select(
            items=items,
            froms=tuple(self.froms),
            where=tuple(predicates),
            distinct=True,
        )


def rule_select(rule: Rule, program: DatalogProgram) -> Select:
    """The SELECT tree computing one rule's derived tuples."""
    return _RuleTranslator(rule, program).select()


def rule_insert(rule: Rule, program: DatalogProgram) -> InsertSelect:
    """The ``INSERT ... SELECT ... EXCEPT`` tree for one rule.

    The EXCEPT dedup keeps set semantics across the several rules feeding
    one target relation (SQL set operations treat NULLs as equal, like the
    engine).
    """
    return InsertSelect(rule.head_relation, rule_select(rule, program))


def rule_to_sql(
    rule: Rule, program: DatalogProgram, dialect: Dialect = SQLITE
) -> str:
    """The ``INSERT ... SELECT`` statement for one rule, rendered."""
    return rule_insert(rule, program).render(dialect)


def intermediate_tables(program: DatalogProgram) -> list[CreateTable]:
    """``CREATE TABLE`` trees for the intermediate (tmp) relations.

    Every intermediate is negated somewhere, and each ``NOT EXISTS`` probe
    predicates all of its columns with null-safe equality, so a ``UNIQUE``
    constraint over all columns (which :class:`CreateTable` always renders)
    gives the engine an index covering every probe: a search per outer row
    instead of a scan of the whole table.  It never fires: each INSERT
    already subtracts the rows present, and NULLs are distinct under
    ``UNIQUE``.
    """
    return [
        CreateTable(name, tuple((f"c{i}", "TEXT") for i in range(arity)))
        for name, arity in program.intermediates.items()
    ]


def intermediate_ddl(
    program: DatalogProgram, dialect: Dialect = SQLITE
) -> list[str]:
    """``CREATE TABLE`` statements for the intermediate (tmp) relations."""
    return [table.render(dialect) for table in intermediate_tables(program)]


def program_to_sql(program: DatalogProgram, dialect: Dialect = SQLITE) -> list[str]:
    """All statements, in evaluation order: tmp DDL, then one INSERT per rule.

    Rendering of :func:`repro.sqlgen.compiler.compile_program`; rules are
    ordered by stratification so intermediate relations are filled before
    the rules that negate them.
    """
    from .compiler import compile_program

    return compile_program(program).sql(dialect)
