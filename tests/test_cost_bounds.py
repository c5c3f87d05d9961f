"""Units for the static cost & cardinality certifier.

Covers the polynomial algebra, the fact base, the abstract interpreter
over rule pipelines, the join-order advisor, the PLN diagnostics, the
``cost.*`` metric family, and the ``MappingSystem.cost_report`` /
``repro plan --cost`` / ``repro lint --cost`` surfaces.  Soundness
against measured row counts lives in ``test_cost_calibration.py``.
"""

import json

import pytest

from repro.analysis.cost import (
    CALIBRATION_SIZE,
    CostFacts,
    JoinOrderAdvisor,
    ONE,
    Polynomial,
    UNBOUNDED,
    ZERO,
    analyze_cost,
    tighter,
)
from repro.analysis.diagnostics import CODES, ERROR, INFO, WARNING
from repro.cli import main
from repro.core.pipeline import MappingSystem
from repro.datalog.exec.plan import plan_program, plan_rule
from repro.datalog.program import DatalogProgram, Rule
from repro.logic.atoms import RelationalAtom
from repro.logic.terms import Variable
from repro.model.schema import Attribute, RelationSchema, Schema
from repro.obs import Tracer, use_tracer
from repro.scenarios import bundled_problems

SCENARIOS = sorted(bundled_problems())


# -- the polynomial algebra ----------------------------------------------


class TestPolynomial:
    def test_constructors_and_render(self):
        assert ZERO.render() == "0"
        assert ONE.render() == "1"
        assert Polynomial.var("R").render() == "|R|"
        assert (Polynomial.var("R") * Polynomial.var("R")).render() == "|R|^2"

    def test_add_and_mul(self):
        r, s = Polynomial.var("R"), Polynomial.var("S")
        assert (r + s).render() == "|R| + |S|"
        assert (r * s).render() == "|R|*|S|"
        assert ((r + ONE) * s).render() == "|S| + |R|*|S|"
        assert (r + r).render() == "2*|R|"

    def test_identities(self):
        r = Polynomial.var("R")
        assert (r + ZERO) == r
        assert (r * ONE) == r
        assert (r * ZERO) == ZERO

    def test_render_orders_by_degree_then_monomial(self):
        r, s = Polynomial.var("R"), Polynomial.var("S")
        poly = r * r + s + Polynomial.const(3) + r * s
        assert poly.render() == "3 + |S| + |R|*|S| + |R|^2"

    def test_evaluate(self):
        r, s = Polynomial.var("R"), Polynomial.var("S")
        poly = r * s + Polynomial.const(2) * r + ONE
        assert poly.evaluate({"R": 10, "S": 5}) == 50 + 20 + 1
        assert poly.evaluate({}) == 1  # missing sizes default to 0

    def test_degree_and_variables(self):
        r, s = Polynomial.var("R"), Polynomial.var("S")
        assert ZERO.degree() == 0 and ONE.degree() == 0
        assert (r * s * s).degree() == 3
        assert (r + s).variables() == {"R", "S"}

    def test_sup_is_coefficientwise_max(self):
        r, s = Polynomial.var("R"), Polynomial.var("S")
        two_r = Polynomial.const(2) * r
        assert (two_r + s).sup(r + s) == two_r + s

    def test_dominates_is_sound_and_partial(self):
        r, s = Polynomial.var("R"), Polynomial.var("S")
        assert (r + s).dominates(r)
        assert not r.dominates(r + s)
        # Incomparable coefficient-wise: neither dominates.
        assert not r.dominates(s)
        assert not s.dominates(r)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.const(-1)

    def test_substitute_expands_intermediates(self):
        tmp = Polynomial.var("TMP")
        r, s = Polynomial.var("R"), Polynomial.var("S")
        assert (tmp * s).substitute({"TMP": r + s}) == r * s + s * s

    def test_unbounded_is_a_singleton_and_renders(self):
        assert UNBOUNDED.render() == "unbounded"
        assert type(UNBOUNDED)() is UNBOUNDED

    def test_tighter_prefers_smaller_calibrated_value(self):
        r, s = Polynomial.var("R"), Polynomial.var("S")
        assert tighter(r * s, r) == r
        assert tighter(r, r * s) == r
        # Equal at the calibration point: deterministic tie-break.
        assert tighter(r, s) is tighter(r, s)
        assert CALIBRATION_SIZE == 1000


# -- a tiny hand-built program for planner/diagnostic cases --------------


def _two_source_schema() -> Schema:
    return Schema(
        [
            RelationSchema("R", [Attribute("a"), Attribute("b")], key="a"),
            RelationSchema("S", [Attribute("c"), Attribute("a")], key="c"),
        ],
        name="s",
    )


def _target_schema() -> Schema:
    return Schema(
        [
            RelationSchema(
                "T", [Attribute("a"), Attribute("b"), Attribute("c")], key="a"
            )
        ],
        name="t",
    )


def _keyed_join_program() -> DatalogProgram:
    """T(x, y, z) <- R(x, y), S(z, x): S-first walks R's key."""
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    rule = Rule(
        head=RelationalAtom("T", (x, y, z)),
        body=(RelationalAtom("R", (x, y)), RelationalAtom("S", (z, x))),
    )
    return DatalogProgram(
        rules=[rule],
        source_schema=_two_source_schema(),
        target_schema=_target_schema(),
    )


def _cross_product_program() -> DatalogProgram:
    """T(x, y, z) <- R(x, y), S(z, w): no shared variable, cross product."""
    x, y, z, w = (Variable(n) for n in "xyzw")
    rule = Rule(
        head=RelationalAtom("T", (x, y, z)),
        body=(RelationalAtom("R", (x, y)), RelationalAtom("S", (z, w))),
    )
    return DatalogProgram(
        rules=[rule],
        source_schema=_two_source_schema(),
        target_schema=_target_schema(),
    )


# -- the join-order advisor ----------------------------------------------


class TestAdvisor:
    def test_advisor_walks_the_key(self):
        program = _keyed_join_program()
        advisor = JoinOrderAdvisor.for_program(program)
        order = advisor.order(program.rules[0].body)
        # S first (|S| rows), then R probed on its full key (fan-out 1).
        assert order == [1, 0]

    def test_greedy_without_stats_keeps_input_order(self):
        program = _keyed_join_program()
        plan = plan_rule(program.rules[0], None)
        assert plan.scan.relation == "R"  # greedy: sizes tie, index order

    def test_static_plan_uses_the_advised_order(self):
        program = _keyed_join_program()
        plan = plan_program(program)
        (rule_plan,) = plan.plans["T"]
        assert rule_plan.scan.relation == "S"
        assert [join.relation for join in rule_plan.joins] == ["R"]

    def test_live_stats_override_the_advisor(self):
        program = _keyed_join_program()
        plan = plan_program(program, stats={"R": 1, "S": 50})
        (rule_plan,) = plan.plans["T"]
        assert rule_plan.scan.relation == "R"  # smallest relation first

    def test_single_atom_and_wide_bodies_fall_back(self):
        program = _keyed_join_program()
        advisor = JoinOrderAdvisor.for_program(program)
        atom = RelationalAtom("R", (Variable("x"), Variable("y")))
        assert advisor.order((atom,)) is None
        wide = tuple(
            RelationalAtom("R", (Variable(f"x{i}"), Variable(f"y{i}")))
            for i in range(7)
        )
        assert advisor.order(wide) is None


# -- the fact base -------------------------------------------------------


class TestCostFacts:
    def test_schema_only_facts(self):
        program = _keyed_join_program()
        facts = CostFacts.for_program(program)
        assert facts.key_sets("R") == ((0,),)
        assert facts.key_sets("S") == ((0,),)
        assert facts.covers_key("R", {0, 1}) and not facts.covers_key("R", {1})
        # Key attributes are never nullable.
        assert facts.never_null("R", 0)
        assert facts.head_keys["T"] == (0,)
        # No certifier report: the head key is declared, not proved.
        assert "T" not in facts.proved_key_relations
        assert facts.chase_depth_bound == 0

    def test_full_facts_from_certifier_and_flow(self):
        system = MappingSystem(bundled_problems()["figure-1"])
        facts = CostFacts.for_program(
            system.transformation,
            certification=system.certify(),
            flow=system.flow_report(),
        )
        # All bundled scenarios certify: every target key is PROVED.
        assert facts.proved_key_relations
        for name in facts.proved_key_relations:
            assert facts.key_sets(name)
        assert facts.functional_rules
        assert facts.nullability  # solved fixpoint values for defined rels


# -- bounds and diagnostics ----------------------------------------------


class TestAnalyzeCost:
    def test_keyed_join_is_linear(self):
        program = _keyed_join_program()
        report = analyze_cost(program, subject="keyed")
        assert report.bounded and report.ok
        assert {c.relation: c.bound.render() for c in report.relations} == {"T": "|S|"}
        (rule,) = report.rule_bounds()
        assert not rule.cross_product
        assert rule.degree() == 1
        notes = [op.note for op in rule.operators]
        assert any("probe covers a key of R" in note for note in notes)

    def test_cross_product_raises_pln001_and_pln002(self):
        program = _cross_product_program()
        report = analyze_cost(program, subject="cross")
        bounds = {c.relation: c.bound.render() for c in report.relations}
        assert bounds == {"T": "|R|*|S|"}
        codes = {finding.code for finding in report.diagnostics}
        assert codes == {"PLN001", "PLN002"}
        assert all(
            finding.severity == WARNING for finding in report.diagnostics
        )
        assert report.ok  # warnings only
        (rule,) = report.rule_bounds()
        assert rule.cross_product and rule.degree() == 2

    def test_unbounded_depth_raises_pln003(self):
        program = _keyed_join_program()
        report = analyze_cost(
            program, subject="loop", facts=CostFacts(chase_depth_bound=None)
        )
        assert not report.bounded
        assert report.max_degree() is None
        assert {c.relation: c.bound for c in report.relations} == {"T": UNBOUNDED}
        (finding,) = report.diagnostics
        assert finding.code == "PLN003" and finding.severity == ERROR
        assert not report.ok
        assert "unbounded" in report.render()

    def test_pln004_reports_dominated_greedy_order(self):
        program = _keyed_join_program()
        report = analyze_cost(program, subject="advice")
        codes = {finding.code for finding in report.diagnostics}
        assert "PLN004" in codes
        (finding,) = [f for f in report.diagnostics if f.code == "PLN004"]
        assert finding.severity == INFO
        assert "cost-advised" in finding.message

    def test_pln_codes_are_registered(self):
        assert CODES["PLN001"].severity == WARNING
        assert CODES["PLN002"].severity == WARNING
        assert CODES["PLN003"].severity == ERROR
        assert CODES["PLN004"].severity == INFO

    def test_report_to_dict_shape(self):
        report = analyze_cost(_keyed_join_program(), subject="keyed")
        data = report.to_dict()
        assert data["subject"] == "keyed"
        assert data["bounded"] is True
        assert data["max_degree"] == 1
        (relation,) = data["relations"]
        assert relation["relation"] == "T"
        assert relation["bound"] == "|S|"
        (rule,) = relation["rules"]
        assert [op["kind"] for op in rule["operators"]] == [
            "scan",
            "join",
            "project",
        ]

    def test_diagnostics_list_the_pln_findings(self):
        report = analyze_cost(_cross_product_program(), subject="cross")
        assert [item.code for item in report.diagnostics] == ["PLN001", "PLN002"]
        assert all(item.subject == "T" for item in report.diagnostics)
        assert report.ok  # PLN001/PLN002 are warnings

    def test_cost_metrics_family(self):
        tracer = Tracer()
        with use_tracer(tracer):
            analyze_cost(_cross_product_program(), subject="cross")
        registry = tracer.metrics
        assert registry.counter("cost.runs").value(bounded="true") == 1
        assert registry.counter("cost.relations").value() == 1
        assert registry.counter("cost.rules").value() == 1
        assert registry.counter("cost.diagnostics").value(code="PLN001") == 1
        assert registry.gauge("cost.max_degree").value(subject="cross") == 2

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_every_bundled_scenario_is_linear_and_clean(self, name):
        """Paper scenarios: linear bounds, no PLN findings (the CI gate)."""
        system = MappingSystem(bundled_problems()[name])
        report = analyze_cost(system.transformation, subject=name)
        assert report.bounded
        assert report.max_degree() == 1
        assert not report.diagnostics

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_scenarios_are_bounded(self, seed):
        """Seeded weakly acyclic scenarios never trip the cost gate."""
        from repro.scenarios.generator import generate_scenario

        scenario = generate_scenario(seed)
        system = MappingSystem(scenario.problem)
        report = analyze_cost(system.transformation, subject=scenario.name)
        assert report.bounded

    def test_derived_bounds_mention_source_sizes_only(self):
        system = MappingSystem(bundled_problems()["figure-1"])
        report = analyze_cost(system.transformation, subject="figure-1")
        sources = set(
            system.problem.source_schema.relation_names()
        )
        for cost in report.relations:
            assert cost.bound.variables() <= sources


# -- the MappingSystem and CLI surfaces ----------------------------------


class TestSurfaces:
    def test_cost_report_is_cached_and_uses_full_facts(self):
        system = MappingSystem(bundled_problems()["figure-1"])
        report = system.cost_report()
        assert report is system.cost_report()
        assert report.subject == "figure-1"
        assert report.bounded and report.ok

    def test_cost_report_invalidated_on_problem_mutation(self):
        system = MappingSystem(bundled_problems()["figure-1"])
        report = system.cost_report()
        # A freshly built problem carries new correspondence objects, so
        # the fingerprint check must drop the cached report.
        system.problem = bundled_problems()["figure-1"]
        assert system.cost_report() is not report

    def test_cli_plan_cost_text(self, capsys):
        assert main(["plan", "--scenario", "figure-1", "--cost"]) == 0
        out = capsys.readouterr().out
        assert "cost report for figure-1" in out
        assert "chase-depth bound: 0" in out
        assert "|C3| + |O3|" in out

    def test_cli_plan_cost_json_all_scenarios(self, capsys):
        assert main(["plan", "--all-scenarios", "--cost", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == len(SCENARIOS)
        assert all(entry["cost"]["bounded"] for entry in payload)
        assert all(entry["cost"]["max_degree"] == 1 for entry in payload)

    def test_cli_plan_all_scenarios_without_cost(self, capsys):
        assert main(["plan", "--all-scenarios", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == len(SCENARIOS)
        assert all("strata" in entry for entry in payload)

    def test_cli_plan_analyze_rejects_all_scenarios(self, capsys):
        assert main(["plan", "--all-scenarios", "--analyze"]) == 2

    def test_cli_lint_cost_clean_and_sarif(self, tmp_path, capsys):
        sarif_path = tmp_path / "cost.sarif"
        code = main(
            [
                "lint",
                "--scenario",
                "figure-1",
                "--cost",
                "--sarif-out",
                str(sarif_path),
            ]
        )
        assert code == 0
        log = json.loads(sarif_path.read_text())
        rules = {
            rule["id"]
            for rule in log["runs"][0]["tool"]["driver"]["rules"]
        }
        assert {"PLN001", "PLN002", "PLN003", "PLN004"} <= rules
        assert log["runs"][0]["results"] == []
