"""Tests for the command-line interface."""

import contextlib
import functools
import io
import json
import pathlib

import pytest

from repro.analysis.sarif import to_sarif
from repro.cli import main
from repro.core.pipeline import MappingSystem
from repro.scenarios import bundled_problems

PROBLEM_TEXT = """
source schema CARS3:
  relation P3 (person key, name, email)
  relation C3 (car key, model)
  relation O3 (car key -> C3, person -> P3)
target schema CARS2:
  relation P2 (person key, name, email)
  relation C2 (car key, model, person? -> P2)
correspondences:
  P3.person -> P2.person
  P3.name -> P2.name
  P3.email -> P2.email
  C3.car -> C2.car
  C3.model -> C2.model
  O3.car -> C2.car
  O3.person -> C2.person
"""

INSTANCE_TEXT = """
P3: (p21, John, j@x), (p22, MJ, mj@x)
C3: (c85, Ferrari), (c86, Ford)
O3: (c85, p22)
"""


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.txt"
    path.write_text(PROBLEM_TEXT)
    return str(path)


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.txt"
    path.write_text(INSTANCE_TEXT)
    return str(path)


class TestCompile:
    def test_compile_datalog(self, problem_file, capsys):
        assert main(["compile", problem_file]) == 0
        out = capsys.readouterr().out
        assert "schema mapping" in out
        assert "OCtmp" in out
        assert "<-" in out

    def test_compile_basic(self, problem_file, capsys):
        assert main(["compile", problem_file, "--algorithm", "basic"]) == 0
        out = capsys.readouterr().out
        assert "OCtmp" not in out  # no negation in the baseline

    def test_compile_sql(self, problem_file, capsys):
        assert main(["compile", problem_file, "--sql"]) == 0
        out = capsys.readouterr().out
        assert "INSERT INTO" in out
        assert "NOT EXISTS" in out

    def test_compile_long_names(self, problem_file, capsys):
        assert main(["compile", problem_file, "--algorithm", "basic",
                     "--long-names"]) == 0
        assert "f_person@" in capsys.readouterr().out


class TestRun:
    def test_run_datalog(self, problem_file, instance_file, capsys):
        assert main(["run", problem_file, instance_file]) == 0
        out = capsys.readouterr().out
        assert "c86" in out and "null" in out

    def test_run_sqlite_enforced(self, problem_file, instance_file, capsys):
        assert main([
            "run", problem_file, instance_file,
            "--engine", "sqlite", "--enforce", "--validate",
        ]) == 0
        out = capsys.readouterr().out
        assert "satisfies all constraints" in out

    def test_run_validate_reports_basic_violations(
        self, problem_file, instance_file, capsys
    ):
        assert main([
            "run", problem_file, instance_file,
            "--algorithm", "basic", "--validate",
        ]) == 0
        out = capsys.readouterr().out
        assert "key violation" in out

    def test_run_fail_on_violation_exits_nonzero(
        self, problem_file, instance_file, capsys
    ):
        assert main([
            "run", problem_file, instance_file,
            "--algorithm", "basic", "--fail-on-violation",
        ]) == 1
        out = capsys.readouterr().out
        # Violations render as located INS* diagnostics before the exit.
        assert "INS002" in out and "error" in out

    def test_run_fail_on_violation_clean_exits_zero(
        self, problem_file, instance_file, capsys
    ):
        assert main([
            "run", problem_file, instance_file, "--fail-on-violation",
        ]) == 0
        out = capsys.readouterr().out
        assert "satisfies all constraints" in out


class TestExplain:
    def test_explain_output(self, problem_file, capsys):
        assert main(["explain", problem_file]) == 0
        out = capsys.readouterr().out
        assert "logical relations" in out
        assert "prune log" in out
        assert "key conflicts" in out
        assert "subsumption" in out


class TestMatch:
    def test_match_schemas(self, tmp_path, capsys):
        source = tmp_path / "src.txt"
        source.write_text(
            "relation P3 (person key, name, email)\n"
            "relation C3 (car key, model)\n"
        )
        target = tmp_path / "tgt.txt"
        target.write_text("relation P2 (person key, name, email)\n")
        assert main(["match", str(source), str(target)]) == 0
        out = capsys.readouterr().out
        assert "P3.person -> P2.person" in out
        assert "correspondences:" in out


class TestQuery:
    def test_query_command(self, problem_file, instance_file, capsys):
        assert main([
            "query", problem_file, instance_file,
            "(c, n) <- C2(c, m, p), P2(p, n, e)",
        ]) == 0
        out = capsys.readouterr().out
        assert "(c85, MJ)" in out
        assert "1 answer(s)" in out

    def test_certain_flag_drops_invented(self, problem_file, instance_file, capsys):
        assert main([
            "query", problem_file, instance_file,
            "--algorithm", "basic", "--certain",
            "(n) <- P2(p, n, e)",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 answer(s) (certain)" in out

    def test_bad_query_reports_error(self, problem_file, instance_file, capsys):
        assert main(["query", problem_file, instance_file, "nonsense"]) == 1
        assert "error" in capsys.readouterr().err


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent/problem.txt"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("this is not a problem file")
        assert main(["compile", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestJsonProblems:
    def test_compile_json_problem(self, tmp_path, capsys):
        from repro.dsl.jsonio import problem_to_dict
        from repro.dsl.parser import parse_problem

        problem = parse_problem(PROBLEM_TEXT)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem_to_dict(problem)))
        assert main(["compile", str(path)]) == 0
        assert "OCtmp" in capsys.readouterr().out


class TestMinimize:
    def test_minimize_scenario_removes_redundant_rule(self, capsys):
        assert main(["minimize", "--scenario", "figure-10"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 rule(s)" in out
        assert "SEM001" in out and "witness" in out
        assert "SEM002" in out  # the matching unitary-mapping finding
        assert "# minimized transformation" in out

    def test_minimize_problem_file(self, problem_file, capsys):
        assert main(["minimize", problem_file]) == 0
        out = capsys.readouterr().out
        assert "semantic minimization" in out

    def test_minimize_syntactic_first_is_already_minimal(self, capsys):
        assert main(["minimize", "--scenario", "figure-10",
                     "--syntactic-first"]) == 0
        out = capsys.readouterr().out
        assert "no removable rules" in out

    def test_minimize_unknown_scenario(self, capsys):
        assert main(["minimize", "--scenario", "no-such-figure"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_minimize_needs_a_problem(self, capsys):
        assert main(["minimize"]) == 2
        assert "problem file or --scenario" in capsys.readouterr().err


class TestWhyPruned:
    def test_subsumption_witnesses(self, problem_file, capsys):
        assert main(["explain", problem_file, "--why-pruned", "S3"]) == 0
        out = capsys.readouterr().out
        assert "rule:   subsumption" in out
        assert "containment witnesses" in out
        assert "source side: {" in out and "target side: {" in out

    def test_nonnull_extension_is_syntactic_only(self, problem_file, capsys):
        assert main(["explain", problem_file, "--why-pruned", "S6"]) == 0
        out = capsys.readouterr().out
        assert "rule:   nonnull-extension" in out
        assert "syntactic only" in out

    def test_poison_record_has_no_subsumer(self, problem_file, capsys):
        assert main(["explain", problem_file, "--why-pruned", "S8"]) == 0
        out = capsys.readouterr().out
        assert "no subsuming candidate" in out

    def test_unknown_candidate_lists_pruned_names(self, problem_file, capsys):
        assert main(["explain", problem_file, "--why-pruned", "S99"]) == 2
        err = capsys.readouterr().err
        assert "no pruned candidate named 'S99'" in err
        assert "S3" in err


class TestSemanticLint:
    def test_lint_semantic_flags_redundancy(self, problem_file, capsys):
        assert main(["lint", problem_file, "--semantic"]) == 0
        out = capsys.readouterr().out
        assert "SEM002" in out
        assert "warning" in out

    def test_lint_verify_optimizations_is_clean(self, problem_file, capsys):
        assert main(["lint", problem_file, "--verify-optimizations"]) == 0
        out = capsys.readouterr().out
        assert "SEM003" not in out and "SEM004" not in out

    def test_semantic_sarif_carries_witnesses(self, problem_file, tmp_path):
        sarif_path = tmp_path / "sem.sarif"
        assert main(["lint", problem_file, "--semantic",
                     "--sarif-out", str(sarif_path)]) == 0
        log = json.loads(sarif_path.read_text())
        results = log["runs"][0]["results"]
        semantic = [r for r in results if r["ruleId"].startswith("SEM")]
        assert semantic
        assert any("witness" in r.get("properties", {}) for r in semantic)

    def test_verify_optimizations_pipeline_flag(self, problem_file, capsys):
        assert main(["compile", problem_file, "--verify-optimizations"]) == 0
        assert "<-" in capsys.readouterr().out

    def test_semantic_pruning_pipeline_flag(self, problem_file, capsys):
        assert main(["compile", problem_file, "--semantic-pruning"]) == 0
        assert "<-" in capsys.readouterr().out


#: broken_mapping.problem.txt with target T2 renamed to the source's S3
SHARED_NAME_TEXT = """
source schema MSRC:
  relation S1 (k key, a)
  relation S2 (k key, b)
  relation S3 (s key, c)
target schema MTGT:
  relation T1 (k key, v, w)
  relation S3 (t key, d)
correspondences:
  S1.k -> T1.k
  S1.a -> T1.v
  S2.k -> T1.k
  S2.b -> T1.v
  S3.c -> S3.t
  S3.s -> S3.d
"""

#: every lint pass flag and the MappingSystem accessor whose result it folds in
PASS_ACCESSORS = [
    ("--flow", "flow_report"),
    ("--certify", "certify"),
    ("--sql", "sql_report"),
    ("--cost", "cost_report"),
    ("--semantic", "minimize"),
    ("--verify-optimizations", "verify"),
]


@functools.lru_cache(maxsize=None)
def _lint_sarif_results(*argv: str) -> list:
    """The SARIF results of ``repro lint ARGV``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["lint", *argv, "--format", "sarif"])
    return json.loads(out.getvalue())["runs"][0]["results"]


class TestLintPasses:
    ALL_PASSES = ["--flow", "--certify", "--sql", "--cost", "--semantic",
                  "--verify-optimizations"]

    def test_pass_flags_share_one_compile(self, monkeypatch, capsys):
        import repro.core.pipeline as pipeline

        calls = []
        real = pipeline.generate_queries

        def spy(*args, **kwargs):
            calls.append(kwargs.get("algorithm"))
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "generate_queries", spy)
        assert main(["lint", "--scenario", "figure-1", *self.ALL_PASSES]) == 0
        assert "1 subject(s)" in capsys.readouterr().out
        # analyze's deep checks and every pass flag share one system
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "subjects, passes",
        [(["--scenario", "figure-1"], []),
         (["--scenario", "figure-1"], ALL_PASSES),
         (["--all-scenarios"], [])],
    )
    def test_one_schema_mapping_per_subject(
        self, monkeypatch, capsys, subjects, passes
    ):
        import repro.core.pipeline as pipeline
        import repro.core.schema_mapping as schema_mapping

        calls = []
        real = schema_mapping.generate_schema_mapping

        def spy(*args, **kwargs):
            calls.append(kwargs.get("algorithm"))
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "generate_schema_mapping", spy)
        monkeypatch.setattr(schema_mapping, "generate_schema_mapping", spy)
        assert main(["lint", *subjects, *passes]) == 0
        out = capsys.readouterr().out
        assert f"{len(calls)} subject(s)" in out
        assert set(calls) == {"novel"}

    @pytest.mark.parametrize("passes", [[], ALL_PASSES])
    def test_refused_problem_lints_without_traceback(
        self, tmp_path, capsys, passes
    ):
        """Schemas sharing a relation name pass the static checks but fail
        ``MappingProblem.validate()``: lint reports the refusal, runs no
        pass, and fails."""
        path = tmp_path / "shared.problem.txt"
        path.write_text(SHARED_NAME_TEXT)
        assert main(["lint", str(path), *passes]) == 1
        out = capsys.readouterr().out
        findings = [line for line in out.splitlines() if " error: " in line
                    or " warning: " in line]
        assert len(findings) == 2
        assert "MAP001 warning: mandatory target attribute T1.w" in findings[0]
        assert findings[1] == (
            f"MAP005 error: query generation failed for {str(path)!r}: "
            "source and target schemas must use distinct relation names "
            "(shared: ['S3']); rename one side [§5]"
        )
        assert out.endswith("1 subject(s): 1 error(s), 1 warning(s)\n")

    @pytest.mark.parametrize("flag, accessor", PASS_ACCESSORS)
    @pytest.mark.parametrize("name", sorted(bundled_problems()))
    def test_pass_flag_folds_in_the_pass_diagnostics(self, name, flag, accessor):
        """``lint --FLAG`` adds exactly ``system.ACCESSOR().diagnostics``."""
        system = MappingSystem(bundled_problems()[name])
        expected = to_sarif(getattr(system, accessor)().diagnostics)
        with_pass = _lint_sarif_results("--scenario", name, flag)
        assert with_pass == _lint_sarif_results("--scenario", name) + (
            expected["runs"][0]["results"]
        )


UNCOVERED_TEXT = """
source schema S:
  relation R (a key)
target schema T:
  relation P (a key, b)
correspondences:
  R.a -> P.a
"""


class TestFlow:
    @pytest.fixture
    def uncovered_file(self, tmp_path):
        path = tmp_path / "uncovered.txt"
        path.write_text(UNCOVERED_TEXT)
        return str(path)

    def test_flow_dump(self, problem_file, capsys):
        assert main(["flow", problem_file]) == 0
        out = capsys.readouterr().out
        assert "flow analysis" in out
        assert "relation C2" in out
        assert "null=" in out and "origins=" in out
        assert "functionality (Algorithm 4, static):" in out

    def test_flow_scenario(self, capsys):
        assert main(["flow", "--scenario", "figure-1"]) == 0
        out = capsys.readouterr().out
        assert "flow fixpoint over" in out
        assert "OCtmp" in out  # intermediates are dumped too

    def test_flow_scenario_with_findings(self, capsys):
        assert main(["flow", "--scenario", "appendix-A.3"]) == 0
        out = capsys.readouterr().out
        assert "diagnostics:" in out
        assert "FLW002" in out

    def test_flow_json_shape(self, problem_file, capsys):
        assert main(["flow", problem_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "problem", "algorithm", "states", "stats",
            "functionality", "diagnostics",
        }
        assert set(payload["states"]) == {
            "nullability", "provenance", "keyorigin"
        }
        for stats in payload["stats"].values():
            assert stats["iterations"] == stats["relations"]
        assert all(entry["confirmed"] for entry in payload["functionality"])

    def test_flow_basic_algorithm(self, problem_file, capsys):
        assert main(["flow", problem_file, "--algorithm", "basic"]) == 0
        assert "OCtmp" not in capsys.readouterr().out

    def test_flow_needs_a_problem(self, capsys):
        assert main(["flow"]) == 2

    def test_flow_unknown_scenario(self, capsys):
        assert main(["flow", "--scenario", "no-such-scenario"]) == 2

    def test_lint_flow_reports_flw(self, uncovered_file, capsys):
        assert main(["lint", uncovered_file, "--flow"]) == 0
        out = capsys.readouterr().out
        assert "FLW002" in out
        assert "P.b" in out

    def test_lint_without_flow_has_no_flw(self, uncovered_file, capsys):
        assert main(["lint", uncovered_file]) == 0
        assert "FLW" not in capsys.readouterr().out

    def test_lint_flow_clean_problem(self, problem_file, capsys):
        assert main(["lint", problem_file, "--flow"]) == 0
        assert "FLW" not in capsys.readouterr().out

    def test_lint_flow_sarif(self, uncovered_file, tmp_path):
        sarif_path = tmp_path / "flow.sarif"
        assert main(["lint", uncovered_file, "--flow",
                     "--sarif-out", str(sarif_path)]) == 0
        log = json.loads(sarif_path.read_text())
        run = log["runs"][0]
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"FLW001", "FLW002", "FLW003"} <= rule_ids
        flw = [r for r in run["results"] if r["ruleId"] == "FLW002"]
        assert flw and flw[0]["level"] == "warning"
        region = flw[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 5  # the declaration line of P.b


class TestTelemetry:
    def test_compile_trace_prints_run_report(self, problem_file, capsys):
        assert main(["compile", problem_file, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "# run report" in out
        assert "stage.schema_mapping" in out
        assert "stage.query_generation" in out
        assert "chase.steps" in out
        assert "prune.subsumption" in out

    def test_run_profile_prints_timings(self, problem_file, instance_file, capsys):
        assert main(["run", problem_file, instance_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "# profile" in out
        assert "stage.evaluate" in out
        assert "eval.tuples" in out
        assert "ms total" in out

    def test_trace_out_writes_schema_valid_json(self, problem_file, tmp_path,
                                                capsys):
        from repro.obs.schema import main as validate_main

        report_path = tmp_path / "run_report.json"
        schema_path = (pathlib.Path(__file__).resolve().parent.parent
                       / "docs" / "run_report.schema.json")
        assert main(["compile", problem_file, "--telemetry-out",
                     str(tmp_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["counters"]["chase.steps"] > 0
        assert validate_main([str(report_path), str(schema_path)]) == 0
        assert "conforms" in capsys.readouterr().out

    def test_telemetry_out_writes_chrome_trace_events(self, problem_file, tmp_path):
        trace_path = tmp_path / "out" / "trace.chrome.json"
        assert main(["compile", problem_file, "--telemetry-out",
                     str(tmp_path / "out")]) == 0
        trace = json.loads(trace_path.read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert "stage.schema_mapping" in names
        assert "chase.steps" in names  # counter events ride along

    def test_explain_includes_telemetry_section(self, problem_file, capsys):
        assert main(["explain", problem_file]) == 0
        out = capsys.readouterr().out
        assert "--- telemetry ---" in out
        assert "counters (totals):" in out

    def test_telemetry_out_writes_one_directory(self, problem_file, tmp_path):
        out = tmp_path / "telemetry"
        assert main(["compile", problem_file, "--telemetry-out",
                     str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "metrics.json", "metrics.txt", "run_report.json",
            "trace.chrome.json",
        ]

    def test_telemetry_out_rejects_empty_path(self, problem_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["compile", problem_file, "--telemetry-out", ""])
        assert exit_info.value.code == 2
        assert "--telemetry-out" in capsys.readouterr().err

    def test_no_flags_no_telemetry(self, problem_file, capsys):
        assert main(["compile", problem_file]) == 0
        out = capsys.readouterr().out
        assert "# run report" not in out
        assert "counters" not in out


class TestEngineFlag:
    def test_run_batch_engine(self, problem_file, instance_file, capsys):
        assert main([
            "run", problem_file, instance_file, "--engine", "batch",
        ]) == 0
        out = capsys.readouterr().out
        assert "c86" in out and "null" in out

    def test_run_batch_matches_reference(self, problem_file, instance_file, capsys):
        assert main(["run", problem_file, instance_file]) == 0
        reference = capsys.readouterr().out
        assert main([
            "run", problem_file, instance_file, "--engine", "batch",
        ]) == 0
        assert capsys.readouterr().out == reference

    def test_workers_requires_batch_engine(self, problem_file, instance_file, capsys):
        assert main([
            "run", problem_file, instance_file, "--workers", "2",
        ]) == 2
        assert "--workers" in capsys.readouterr().err


class TestPlanCommand:
    def test_plan_problem_file(self, problem_file, capsys):
        assert main(["plan", problem_file]) == 0
        out = capsys.readouterr().out
        assert "scan " in out
        assert "project " in out

    def test_plan_scenario(self, capsys):
        assert main(["plan", "--scenario", "figure-1"]) == 0
        out = capsys.readouterr().out
        assert "join C3 on" in out
        assert "antijoin OCtmp" in out

    def test_plan_json_shape(self, problem_file, capsys):
        assert main(["plan", problem_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strata"]
        operators = [
            op
            for stratum in payload["strata"]
            for rule in stratum["rules"]
            for op in rule["operators"]
        ]
        assert any(op.startswith("scan ") for op in operators)
        assert any(op.startswith("project ") for op in operators)


class TestExplainAnalyze:
    def test_run_explain_analyze_prints_operator_tree(
        self, problem_file, instance_file, capsys
    ):
        assert main([
            "run", problem_file, instance_file,
            "--engine", "batch", "--explain-analyze",
        ]) == 0
        out = capsys.readouterr().out
        assert "# explain analyze" in out
        assert "explain analyze (batch engine)" in out
        assert "source rows ->" in out
        assert "stratum 0" in out
        assert "rows_in=" in out and "rows_out=" in out
        assert "scan " in out and "project " in out

    def test_run_explain_analyze_reference_engine(
        self, problem_file, instance_file, capsys
    ):
        assert main([
            "run", problem_file, instance_file,
            "--engine", "reference", "--explain-analyze",
        ]) == 0
        out = capsys.readouterr().out
        assert "explain analyze (reference engine)" in out
        assert "(no operator pipeline: reference engine)" in out

    def test_explain_analyze_rejects_sqlite(
        self, problem_file, instance_file, capsys
    ):
        assert main([
            "run", problem_file, instance_file,
            "--engine", "sqlite", "--explain-analyze",
        ]) == 2
        assert "--explain-analyze" in capsys.readouterr().err

    def test_analyze_out_writes_profile_json(
        self, problem_file, instance_file, tmp_path, capsys
    ):
        out_path = tmp_path / "analyze.json"
        assert main([
            "run", problem_file, instance_file,
            "--engine", "batch", "--telemetry-out", str(tmp_path),
        ]) == 0
        # --telemetry-out alone triggers collection but not the text dump
        assert "# explain analyze" not in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["engine"] == "batch"
        assert payload["strata"]
        kinds = {
            op["kind"]
            for stratum in payload["strata"]
            for rule in stratum["rules"]
            for op in rule["operators"]
        }
        assert {"scan", "project"} <= kinds

    def test_plan_analyze_renders_annotated_tree(
        self, problem_file, instance_file, capsys
    ):
        assert main([
            "plan", problem_file, "--analyze", "--instance", instance_file,
        ]) == 0
        out = capsys.readouterr().out
        assert "batch execution plan, analyzed" in out
        assert "rows_in=" in out

    def test_plan_analyze_requires_instance(self, problem_file, capsys):
        assert main(["plan", problem_file, "--analyze"]) == 2
        assert "--instance" in capsys.readouterr().err

    def test_plan_analyze_json(self, problem_file, instance_file, capsys):
        assert main([
            "plan", problem_file, "--analyze",
            "--instance", instance_file, "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analyze"]["engine"] == "batch"
        assert payload["analyze"]["strata"]


class TestMetricsExport:
    def test_run_metrics_json_is_schema_valid(
        self, problem_file, instance_file, tmp_path
    ):
        from repro.obs.schema import validate

        out_path = tmp_path / "metrics.json"
        assert main([
            "run", problem_file, instance_file,
            "--engine", "batch", "--telemetry-out", str(tmp_path),
        ]) == 0
        payload = json.loads(out_path.read_text())
        schema = json.loads(
            (pathlib.Path(__file__).resolve().parent.parent
             / "docs" / "metrics.schema.json").read_text()
        )
        validate(payload, schema)  # must not raise
        names = {family["name"] for family in payload["metrics"]}
        assert "eval.rows" in names
        assert "exec.batches" in names
        assert "eval.run.seconds" in names

    def test_run_metrics_txt_is_openmetrics(self, problem_file, instance_file, tmp_path):
        out_path = tmp_path / "metrics.txt"
        assert main([
            "run", problem_file, instance_file,
            "--engine", "batch", "--telemetry-out", str(tmp_path),
        ]) == 0
        text = out_path.read_text()
        assert text.endswith("# EOF\n")
        assert "# TYPE eval_rows counter" in text
        assert 'eval_rows_total{engine="batch",kind="target"}' in text

    def test_sqlite_run_writes_no_profile(
        self, problem_file, instance_file, tmp_path
    ):
        assert main([
            "run", problem_file, instance_file,
            "--engine", "sqlite", "--telemetry-out", str(tmp_path),
        ]) == 0
        assert (tmp_path / "metrics.json").exists()
        assert not (tmp_path / "analyze.json").exists()


class TestExplainWithInstance:
    def test_explain_instance_shows_batch_counters(
        self, problem_file, instance_file, capsys
    ):
        """Regression: explain omitted the batch engine's counters because
        nothing was evaluated — --instance runs the engine first."""
        assert main([
            "explain", problem_file, "--instance", instance_file,
            "--engine", "batch",
        ]) == 0
        out = capsys.readouterr().out
        assert "--- telemetry ---" in out
        assert "exec.batches" in out
        assert "eval.index_reuse" in out

    def test_explain_reference_engine_instance(
        self, problem_file, instance_file, capsys
    ):
        assert main([
            "explain", problem_file, "--instance", instance_file,
            "--engine", "reference",
        ]) == 0
        out = capsys.readouterr().out
        assert "eval.tuples" in out
        assert "exec.batches" not in out  # no batching in the interpreter

    def test_explain_without_instance_has_no_eval_counters(
        self, problem_file, capsys
    ):
        assert main(["explain", problem_file]) == 0
        assert "exec.batches" not in capsys.readouterr().out
