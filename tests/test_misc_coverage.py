"""Additional unit tests for less-travelled code paths."""

import pytest

from repro.core.pipeline import MappingSystem
from repro.datalog.engine import RowStore, evaluate_rule
from repro.datalog.program import Rule
from repro.logic.atoms import Disequality, Equality, RelationalAtom
from repro.logic.satisfiability import EgdClosure
from repro.logic.terms import Constant, Variable
from repro.model.builder import SchemaBuilder
from repro.scenarios import cars


def V(name):
    return Variable(name)


class TestEngineDisequalities:
    def test_disequality_condition(self):
        x, y = V("x"), V("y")
        rule = Rule(
            head=RelationalAtom("T", (x,)),
            body=(RelationalAtom("R", (x, y)),),
            disequalities=(Disequality(y, Constant("skip")),),
        )
        store = RowStore()
        store.add_relation("R", [("a", "keep"), ("b", "skip")])
        assert evaluate_rule(rule, store) == [("a",)]

    def test_disequality_between_variables(self):
        x, y, z = V("x"), V("y"), V("z")
        rule = Rule(
            head=RelationalAtom("T", (x,)),
            body=(RelationalAtom("R", (x, y, z)),),
            disequalities=(Disequality(y, z),),
        )
        store = RowStore()
        store.add_relation("R", [("a", 1, 2), ("b", 1, 1)])
        assert evaluate_rule(rule, store) == [("a",)]

    def test_disequality_repr_in_rule(self):
        x, y = V("x"), V("y")
        rule = Rule(
            head=RelationalAtom("T", (x,)),
            body=(RelationalAtom("R", (x, y)),),
            disequalities=(Disequality(y, Constant("v")),),
        )
        assert "!=" in repr(rule)


class TestSolverEdges:
    def test_clash_mid_chase(self):
        schema = SchemaBuilder("s").relation("R", "k", "v").build()
        closure = EgdClosure(schema)
        k1, k2 = V("k1"), V("k2")
        closure.add_atoms(
            [
                RelationalAtom("R", (k1, Constant("a"))),
                RelationalAtom("R", (k2, Constant("b"))),
            ]
        )
        closure.equate(k1, k2)
        closure.saturate()
        assert closure.contradiction is not None  # the fd forces a = b

    def test_assertions_after_clash_are_noops(self):
        closure = EgdClosure(None)
        x = V("x")
        closure.equate(x, Constant("a"))
        closure.equate(x, Constant("b"))
        reason = closure.contradiction
        assert reason is not None
        closure.equate(x, Constant("c"))  # must not raise
        closure.mark_null(x)
        closure.mark_nonnull(x)
        assert closure.contradiction == reason

    def test_atoms_over_unknown_relations_are_skipped(self):
        schema = SchemaBuilder("s").relation("R", "k", "v").build()
        closure = EgdClosure(schema)
        closure.add_atoms(
            [
                RelationalAtom("Mystery", (V("a"), V("b"))),
                RelationalAtom("Mystery", (V("c"), V("d"))),
            ]
        )
        closure.saturate()  # no KeyError
        assert closure.contradiction is None


class TestCliEdges:
    def test_run_with_missing_instance(self, tmp_path, capsys):
        from repro.cli import main

        problem = tmp_path / "p.txt"
        problem.write_text(
            "source schema S:\n  relation A (k)\n"
            "target schema T:\n  relation B (k)\n"
            "correspondences:\n  A.k -> B.k\n"
        )
        assert main(["run", str(problem), "/does/not/exist"]) == 1
        assert "error" in capsys.readouterr().err

    def test_compile_no_optimize_keeps_subsumed_rules(self, tmp_path, capsys):
        from repro.cli import main

        problem = tmp_path / "p.txt"
        problem.write_text(
            "source schema CARS3:\n"
            "  relation P3 (person key, name, email)\n"
            "  relation C3 (car key, model)\n"
            "  relation O3 (car key -> C3, person -> P3)\n"
            "target schema CARS2:\n"
            "  relation P2 (person key, name, email)\n"
            "  relation C2 (car key, model, person? -> P2)\n"
            "correspondences:\n"
            "  P3.person -> P2.person\n  P3.name -> P2.name\n"
            "  P3.email -> P2.email\n  C3.car -> C2.car\n"
            "  C3.model -> C2.model\n  O3.person -> C2.person\n"
        )
        assert main(["compile", str(problem)]) == 0
        optimized = capsys.readouterr().out.count("P2(")
        assert main(["compile", str(problem), "--no-optimize"]) == 0
        unoptimized = capsys.readouterr().out.count("P2(")
        assert unoptimized > optimized

    def test_match_threshold_flag(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "s.txt"
        source.write_text("relation A (key1, value1)\n")
        target = tmp_path / "t.txt"
        target.write_text("relation B (key1, value1)\n")
        assert main(["match", str(source), str(target), "--threshold", "0.99"]) == 0
        strict = capsys.readouterr().out
        assert main(["match", str(source), str(target), "--threshold", "0.1"]) == 0
        loose = capsys.readouterr().out
        assert loose.count("->") >= strict.count("->")


class TestMatcherPaths:
    def test_path_suggestions_respect_max_depth(self):
        from repro.core.matching import MAX_PATH_DEPTH, _path_references
        from repro.scenarios.synthetic import chain_schema

        # The chain has longer FK paths; the matcher stops at the bound.
        schema = chain_schema(4, nullable_links=False)
        depths = {len(r.steps) - 1 for r in _path_references(schema)}
        assert depths == set(range(1, MAX_PATH_DEPTH + 1))

    def test_path_penalty_prefers_plain_match(self, cars3, cars2):
        from repro.core.matching import suggest_correspondences

        suggestions = suggest_correspondences(cars3, cars2, threshold=0.5)
        person_match = next(
            s
            for s in suggestions
            if repr(s.correspondence.target) == "P2.person"
        )
        assert person_match.correspondence.source.is_plain


class TestChaseOrderFallback:
    def test_key_to_key_cycle_still_ordered(self):
        from repro.model.graph import chase_order

        schema = (
            SchemaBuilder("cycle")
            .relation("A", "k")
            .relation("B", "k")
            .foreign_key("A", "k", "B")
            .foreign_key("B", "k", "A")
            .build(validate=False)
        )
        order = chase_order(schema)
        assert sorted(order) == ["A", "B"]


class TestRendererEdges:
    def test_render_rule_with_conditions(self):
        from repro.dsl.renderer import render_rule

        problem = cars.figure14_problem()
        program = MappingSystem(problem).transformation
        null_rule = next(r for r in program.rules if r.null_vars)
        text = render_rule(null_rule)
        assert "=null" in text

    def test_display_renaming_primes_existentials(self):
        from repro.dsl.renderer import render_schema_mapping

        # A.4-style mapping: target email is existential and its display name
        # may collide with nothing — but the Entry scenario collides.
        from repro.core.pipeline import MappingProblem

        source = SchemaBuilder("s").relation("A", "k", "phone?").build()
        target = SchemaBuilder("t").relation("B", "k", "phone?").build()
        problem = MappingProblem(source, target)
        problem.add_correspondence("A.k", "B.k")
        text = render_schema_mapping(MappingSystem(problem).schema_mapping)
        assert "p'" in text  # the existential phone got a prime


class TestSqlEdges:
    def test_rule_with_constant_in_body(self):
        from repro.datalog.program import DatalogProgram
        from repro.sqlgen.compiler import compile_program

        x = V("x")
        source = SchemaBuilder("s").relation("R", "k", "tag").build()
        target = SchemaBuilder("t").relation("T", "k").build()
        rule = Rule(
            head=RelationalAtom("T", (x,)),
            body=(RelationalAtom("R", (x, Constant("only"))),),
        )
        program = DatalogProgram(
            rules=[rule], source_schema=source, target_schema=target
        )
        (sql,) = compile_program(program).sql()
        assert "= 'only'" in sql

    def test_sql_disequality_parity(self):
        from repro.core.pipeline import MappingProblem
        from repro.model.instance import instance_from_dict
        from repro.sqlgen import run_on_sqlite

        source = SchemaBuilder("s").relation("R", "k", "tag").build()
        target = SchemaBuilder("t").relation("T", "k").build()
        problem = MappingProblem(source, target)
        problem.add_correspondence("R.k", "T.k", where="R.tag != 'drop'")
        system = MappingSystem(problem)
        instance = instance_from_dict(
            source, {"R": [("a", "keep"), ("b", "drop")]}
        )
        assert run_on_sqlite(system.transformation, instance) == system.transform(
            instance
        )


class TestMultipleCoverageSelections:
    def test_two_paths_yield_two_candidates(self):
        """A correspondence with two coverage mappings in one skeleton makes
        one candidate per selection (the paper's coverage-mapping machinery)."""
        from repro.core.candidates import generate_candidates
        from repro.core.chase import logical_relations
        from repro.core.pipeline import MappingProblem

        source = (
            SchemaBuilder("s")
            .relation("P", "pid", "name")
            .relation("Match", "mid", "home", "away")
            .foreign_key("Match", "home", "P")
            .foreign_key("Match", "away", "P")
            .build()
        )
        target = SchemaBuilder("t").relation("Star", "mid", "name").build()
        problem = MappingProblem(source, target)
        problem.add_correspondence("Match.mid", "Star.mid")
        # Plain P.name: coverable via the home atom AND via the away atom.
        problem.add_correspondence("P.name", "Star.name")
        generation = generate_candidates(
            logical_relations(source),
            logical_relations(target),
            problem.correspondences,
        )
        match_candidates = [
            c
            for c in generation.candidates
            if c.source_tableau.root_relation == "Match"
            and len(c.selection) == 2
        ]
        assert len(match_candidates) == 2  # home-name and away-name selections
        names = {c.name for c in match_candidates}
        assert any(".1" in n for n in names)  # the selection suffix
        terms = {
            c.source_term(c.selection_by_correspondence()[problem.correspondences[1]])
            for c in match_candidates
        }
        assert len(terms) == 2  # genuinely different value flows
