"""The results-matrix eval runner: rows, gates, serialization, CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench.evalmatrix import (
    EvalMatrix,
    EvalRow,
    eval_scenario,
    parse_seed_range,
    run_eval,
)
from repro.cli import main
from repro.scenarios.generator import DEFAULT, GeneratorConfig
from repro.sqlgen.executor import duckdb_available


class TestEvalScenario:
    def test_row_shape_on_clean_seed(self):
        row = eval_scenario(0, duckdb=False)
        assert row.status == "ok"
        assert row.scenario == "gen-0" and row.seed == 0
        assert row.agreement is True and row.disagreements == []
        assert row.engines == ["reference", "batch", "sqlite"]
        assert row.certify and row.certify.get("REFUTED", 0) == 0
        assert row.refuted == 0 and row.unconfirmed_refuted == 0
        assert row.termination == "PROVED"
        assert row.sql_ok is True
        assert row.cost_bounded is True and row.cost_max_degree is not None
        assert row.flow_ok is True
        assert row.timings["seconds"] > 0
        for leg in row.engines:
            assert leg in row.timings

    def test_each_stage_timer_covers_one_pass(self, monkeypatch):
        # cost_report() consumes the flow report: the flow fixpoint must
        # already be cached when the cost timer starts.
        import repro.analysis.flow as flow_module
        from repro.core.pipeline import MappingSystem

        window = {"cost": False}
        flow_calls = []
        real_flow = flow_module.analyze_flow
        real_cost = MappingSystem.cost_report

        def spy_flow(*args, **kwargs):
            flow_calls.append(window["cost"])
            return real_flow(*args, **kwargs)

        def spy_cost(system):
            window["cost"] = True
            try:
                return real_cost(system)
            finally:
                window["cost"] = False

        monkeypatch.setattr(flow_module, "analyze_flow", spy_flow)
        monkeypatch.setattr(MappingSystem, "cost_report", spy_cost)
        row = eval_scenario(0, duckdb=False)
        assert row.flow_ok is True and row.cost_bounded is True
        assert flow_calls == [False]

    def test_cyclic_config_reports_lint_error(self):
        row = eval_scenario(0, GeneratorConfig(weakly_acyclic=False), duckdb=False)
        assert row.status == "lint-error"
        assert "SCH010" in row.lint_codes
        assert row.agreement is None and row.certify is None

    def test_stable_dict_excludes_timings(self):
        row = eval_scenario(1, duckdb=False)
        stable = row.stable_dict()
        assert "timings" not in stable
        assert "timings" in row.to_dict()

    @pytest.mark.skipif(not duckdb_available(), reason="duckdb not installed")
    def test_duckdb_leg_populates_when_available(self):
        row = eval_scenario(0, duckdb=True)
        assert "duckdb" in row.engines
        assert row.agreement is True
        assert "duckdb" in row.timings


class TestEvalMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return run_eval(range(4), duckdb=False)

    def test_summary_counts(self, matrix):
        summary = matrix.summary()
        assert summary["scenarios"] == 4
        assert summary["ok"] == 4 and summary["error"] == 0
        assert summary["agreeing"] == summary["evaluated"] == 4
        assert summary["refuted"] == 0 and summary["unconfirmed_refuted"] == 0
        assert summary["certify"].get("REFUTED", 0) == 0
        assert summary["sqlcheck"].get("UNKNOWN", 0) == 0

    def test_gate_passes_clean_sweep(self, matrix):
        assert matrix.gate() == []
        assert matrix.gate("error") == []
        assert matrix.gate("never") == []

    def test_gate_flags_bad_rows(self):
        bad = EvalRow(
            scenario="gen-9",
            seed=9,
            status="ok",
            agreement=False,
            disagreements=["sqlite"],
            refuted=2,
            unconfirmed_refuted=1,
            sql_ok=False,
            cost_bounded=False,
            flow_ok=False,
        )
        errored = EvalRow(scenario="gen-10", seed=10, status="error", error="boom")
        matrix = EvalMatrix(rows=[bad, errored])
        failures = matrix.gate()
        assert len(failures) == 6
        assert any("engines disagree (sqlite)" in f for f in failures)
        assert any("REFUTED without counterexample" in f for f in failures)
        assert len(matrix.gate("error")) == 7
        assert matrix.gate("never") == []

    def test_json_round_trip(self, matrix):
        document = json.loads(matrix.to_json())
        assert set(document) == {"meta", "results"}
        results = document["results"]
        assert results["summary"]["scenarios"] == 4
        assert len(results["rows"]) == 4
        assert results["config"] == DEFAULT.to_dict()
        lines = matrix.to_jsonl().splitlines()
        assert [json.loads(line)["seed"] for line in lines] == [0, 1, 2, 3]

    def test_render_table(self, matrix):
        text = matrix.render()
        assert "certify P/R/U" in text
        assert "4 scenario(s): 4 ok" in text


class TestParseSeedRange:
    def test_forms(self):
        assert parse_seed_range("0:4") == [0, 1, 2, 3]
        assert parse_seed_range("7") == [7]
        assert parse_seed_range("3,5,9") == [3, 5, 9]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            parse_seed_range("5:5")


class TestCliEval:
    def test_sweep_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "matrix.json"
        jsonl = tmp_path / "matrix.jsonl"
        assert (
            main(
                [
                    "eval",
                    "--seeds",
                    "0:3",
                    "--no-duckdb",
                    "--out",
                    str(out),
                    "--jsonl-out",
                    str(jsonl),
                ]
            )
            == 0
        )
        assert "3 scenario(s): 3 ok" in capsys.readouterr().out
        document = json.loads(out.read_text())
        assert document["results"]["summary"]["agreeing"] == 3
        assert len(jsonl.read_text().splitlines()) == 3

    def test_replay_prints_scenario(self, capsys):
        assert main(["eval", "--seed", "7", "--replay", "--no-duckdb"]) == 0
        out = capsys.readouterr().out
        assert "# scenario gen-7 (seed 7)" in out
        assert "source schema GENSRC7:" in out
        assert "# eval row" in out

    def test_cyclic_mode_is_lint_error_not_gate_failure(self, capsys):
        assert main(["eval", "--seeds", "0:2", "--cyclic", "--no-duckdb"]) == 0
        assert "2 lint-error" in capsys.readouterr().out

    def test_cyclic_mode_fails_error_gate(self, capsys):
        assert (
            main(
                ["eval", "--seeds", "0:2", "--cyclic", "--no-duckdb", "--fail-on", "error"]
            )
            == 1
        )
        assert "eval gate:" in capsys.readouterr().err

    def test_bad_seed_range_exits_2(self, capsys):
        assert main(["eval", "--seeds", "9:9"]) == 2
        assert "empty seed range" in capsys.readouterr().err

    def test_json_output(self, capsys):
        assert main(["eval", "--seed", "2", "--no-duckdb", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["scenarios"] == 1
