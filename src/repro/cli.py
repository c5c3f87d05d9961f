"""Command-line interface: compile, run, explain and match mapping problems.

Usage (after installation, via ``python -m repro``):

* ``python -m repro compile problem.txt`` — print the schema mapping and the
  generated transformation (``--sql`` for the SQL translation, ``--algorithm
  basic`` for the Clio-style baseline);
* ``python -m repro run problem.txt instance.txt`` — execute the
  transformation on an instance (``--engine batch`` for the planned
  set-oriented runtime; ``--engine sqlite`` runs on SQLite, ``--enforce``
  with real constraints; ``--validate`` prints the target constraint report,
  ``--fail-on-violation`` additionally exits non-zero when it is not clean);
* ``python -m repro plan problem.txt`` — dump the batch runtime's compiled
  operator trees;
* ``python -m repro explain problem.txt`` — the full audit trail: logical
  relations, candidates, prune log, key conflicts, resolution;
* ``python -m repro match source.txt target.txt`` — suggest correspondences
  between two bare schemas and print a ready-to-edit problem file;
* ``python -m repro query problem.txt instance.txt "(c, n) <- C2(c,m,p), P2(p,n,e)"``
  — transform, then answer a conjunctive query over the target
  (``--certain`` for certain answers);
* ``python -m repro minimize problem.txt`` — semantically minimize the
  generated transformation via chase-based containment and print the
  removal witnesses;
* ``python -m repro flow problem.txt`` — dump the abstract-interpretation
  fixpoint over the generated program: per-position nullability, source
  provenance and key-origin, the static functionality confirmations, and
  the ``FLW*`` findings;
* ``python -m repro certify problem.txt`` — statically prove, refute with a
  minimal counterexample source instance, or leave UNKNOWN every key,
  foreign-key and NOT NULL constraint of the target schema plus the
  chase-termination bound (``--sarif-out PATH`` for a SARIF log,
  ``--fail-on {refuted,unknown,never}`` for the exit policy);
* ``python -m repro sql problem.txt`` — dump the compiled whole-program SQL
  pipeline (intermediate DDL + one stratified INSERT per rule; ``--dialect
  {sqlite,duckdb}``); ``--check`` runs the translation validator, printing
  one PROVED / UNKNOWN round-trip verdict per statement with the
  containment witnesses;
* ``python -m repro reproduce`` — re-run every figure/example of the paper
  and print the paper-vs-measured verdict table;
* ``python -m repro bench-diff baseline.json current.json`` — the
  perf-regression gate: compare two benchmark report files scenario by
  scenario and exit 1 when any wall time regressed past ``--threshold``;
* ``python -m repro eval --seeds 0:100`` — sweep generated scenarios
  (``repro.scenarios.generator``) through the full verification stack and
  print the results matrix: per-seed engine agreement (reference vs batch
  vs SQLite, DuckDB when importable), certify / sqlcheck verdict counts,
  cost boundedness and flow health; ``--out`` / ``--jsonl-out`` persist the
  matrix with provenance, ``--seed N --replay`` reprints one scenario's DSL
  and instance for offline debugging, and ``--fail-on
  {disagreement,error,never}`` sets the exit policy (the CI gate).

``flow``, ``certify``, ``sql``, ``plan``, ``minimize`` and ``lint`` take
their subjects the same way: problem files (any number for ``lint``), then
``--scenario NAME`` or ``--all-scenarios`` (not on ``flow`` and
``minimize``); ``--json`` prints one object for one subject and a list for
several.  ``python -m repro lint`` runs the static analyzer and folds in the
``diagnostics`` of the opt-in passes ``--flow``, ``--certify``, ``--sql``,
``--cost``, ``--semantic`` and ``--verify-optimizations``; the analyzer and
every pass read one :class:`~repro.core.pipeline.MappingSystem` per subject,
so each pipeline stage runs once.  ``lint``, ``certify`` and ``sql --check``
share one exit gate: exit 1 iff a diagnostic is at or above the threshold
(``certify --fail-on refuted|unknown`` is ``error|warning``, ``sql --check``
is ``error``).

``compile``, ``run``, ``explain`` and ``query`` all accept the telemetry
flags ``--trace`` (print the stage-by-stage run report), ``--profile``
(print per-stage timings) and ``--telemetry-out DIR``, which writes
``run_report.json`` (schema ``docs/run_report.schema.json``),
``trace.chrome.json`` (Chrome trace events), ``metrics.json`` (the typed
metrics snapshot, schema ``docs/metrics.schema.json``), ``metrics.txt``
(Prometheus/OpenMetrics text) and, for ``run`` with a measured profile,
``analyze.json`` (the EXPLAIN ANALYZE data); ``run`` adds
``--explain-analyze`` to print the measured operator trees.  See
``docs/OBSERVABILITY.md``.

Problem files use the text DSL of :mod:`repro.dsl.parser`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core.matching import suggest_correspondences
from .core.pipeline import MappingProblem, MappingSystem
from .core.schema_mapping import BASIC, NOVEL
from .dsl.parser import parse_instance, parse_problem, parse_schema
from .dsl.renderer import render_program, render_schema, render_schema_mapping
from .dsl.report import explain
from .errors import ReproError
from .model.validation import validate_instance
from .obs import write_chrome_trace, write_metrics_json, write_openmetrics
from .sqlgen.compiler import compile_program
from .sqlgen.executor import SqliteExecutor


def _load_problem(path: str, lenient: bool = False) -> tuple[MappingProblem, list]:
    """A problem file plus, when parsed ``lenient``-ly, its parse findings."""
    with open(path) as handle:
        if lenient:
            from .dsl.parser import parse_problem_lenient

            return parse_problem_lenient(handle.read(), name=path, file=path)
        return parse_problem(handle.read(), name=path), []


def _load_instance(path: str, system: MappingSystem):
    """A source instance file of ``system``'s problem."""
    with open(path) as handle:
        return parse_instance(handle.read(), system.problem.source_schema)


def _telemetry_dir(value: str) -> str:
    """The ``--telemetry-out`` argument type: a non-empty directory path."""
    if not value:
        raise argparse.ArgumentTypeError("expected a directory path, got ''")
    return value


def _wants_telemetry(args) -> bool:
    return bool(
        getattr(args, "trace", False)
        or getattr(args, "profile", False)
        or getattr(args, "telemetry_out", None)
    )


def _system(args, force_trace: bool = False) -> MappingSystem:
    problem, _ = _load_problem(args.problem)
    return MappingSystem(
        problem,
        algorithm=args.algorithm,
        optimize=not args.no_optimize,
        trace=force_trace or _wants_telemetry(args),
        semantic_pruning=getattr(args, "semantic_pruning", False),
        verify_optimizations=getattr(args, "verify_optimizations", False),
    )


def _write_json(data, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def _emit_telemetry(
    system: MappingSystem, args, profile=None, echo: bool = True
) -> None:
    """Print the merged RunReport (``--trace``/``--profile``, unless
    ``echo`` is off) and write the ``--telemetry-out`` directory; a measured
    ``profile`` adds ``analyze.json``."""
    if system.tracer is None or not _wants_telemetry(args):
        return
    report = system.stats()
    if echo and getattr(args, "trace", False):
        print()
        print("# run report")
        print(report.render())
    if echo and getattr(args, "profile", False):
        print()
        print("# profile")
        print(report.render_profile())
    out = getattr(args, "telemetry_out", None)
    if not out:
        return
    os.makedirs(out, exist_ok=True)
    _write_json(report.to_dict(), os.path.join(out, "run_report.json"))
    write_chrome_trace(report, os.path.join(out, "trace.chrome.json"))
    write_metrics_json(system.tracer.metrics, os.path.join(out, "metrics.json"))
    write_openmetrics(system.tracer.metrics, os.path.join(out, "metrics.txt"))
    if profile is not None:
        _write_json(profile.to_dict(), os.path.join(out, "analyze.json"))


def cmd_compile(args) -> int:
    system = _system(args)
    print("# schema mapping")
    print(render_schema_mapping(system.schema_mapping, shorten=not args.long_names))
    print()
    if args.sql:
        print("# SQL transformation")
        for statement in compile_program(system.transformation).sql():
            print(statement + ";")
    else:
        print("# transformation (non-recursive Datalog)")
        print(render_program(system.transformation, shorten=not args.long_names))
    _emit_telemetry(system, args)
    return 0


def cmd_run(args) -> int:
    system = _system(args)
    if args.enforce and args.engine != "sqlite":
        print("error: --enforce requires --engine sqlite", file=sys.stderr)
        return 2
    if args.explain_analyze and args.engine == "sqlite":
        print(
            "error: --explain-analyze requires --engine batch or reference",
            file=sys.stderr,
        )
        return 2
    source = _load_instance(args.instance, system)
    profile = None
    if args.engine == "sqlite":
        executor = SqliteExecutor(enforce_constraints=args.enforce)
        target = executor.run(system.transformation, source)
    else:
        result = system.run(
            source, engine=args.engine, analyze=args.explain_analyze
        )
        target, profile = result.target, result.profile
    print(target.to_text())
    if args.validate or args.fail_on_violation:
        report = validate_instance(target)
        print()
        print("validation:", report.summary())
        for item in report.diagnostics:
            print(f"  {item.render()}")
        if args.fail_on_violation and not report.ok:
            _emit_telemetry(system, args, profile)
            return 1
    if profile is not None and args.explain_analyze:
        print()
        print("# explain analyze")
        print(profile.render())
    _emit_telemetry(system, args, profile)
    return 0


def cmd_explain(args) -> int:
    if args.why_pruned:
        return _why_pruned(_system(args), args.why_pruned)
    system = _system(args, force_trace=True)
    if args.instance:
        # Evaluate before rendering so the telemetry section carries the
        # engine's counters (the batch engine's exec.batches /
        # eval.index_reuse included) — without an instance there is no
        # evaluation to report on.
        system.run(_load_instance(args.instance, system), engine=args.engine)
    print(explain(system))
    # explain's own telemetry section already renders the run report
    _emit_telemetry(system, args, echo=False)
    return 0


def _why_pruned(system: MappingSystem, name: str) -> int:
    """Explain one prune decision: the syntactic record plus, when one
    exists, the chase-based containment witness certifying it."""
    from .core.pruning import (
        semantic_implication_witness,
        semantic_subsumption_witnesses,
    )

    report = system.schema_mapping_result().report
    record = next((p for p in report.pruned if p.name == name), None)
    if record is None:
        pruned_names = ", ".join(sorted({p.name for p in report.pruned})) or "none"
        print(
            f"error: no pruned candidate named {name!r} "
            f"(pruned: {pruned_names})",
            file=sys.stderr,
        )
        return 2
    print(f"{record.name}: {record.description}")
    print(f"  rule:   {record.rule}")
    print(f"  reason: {record.reason}")
    if record.by is None:
        print("  no subsuming candidate: pruned on its own structure; "
              "containment witnesses do not apply")
        return 0
    candidates = {c.name: c for c in report.candidates}
    pruned_candidate = candidates.get(name)
    by_candidate = candidates.get(record.by)
    if pruned_candidate is None or by_candidate is None:
        print("  witness: unavailable (candidate pruned before the "
              "candidate-generation report)")
        return 0
    if record.rule == "implication":
        witness = semantic_implication_witness(by_candidate, pruned_candidate)
        if witness is not None:
            print(f"  containment witness ({record.by} implies {name}):")
            for line in witness.render().splitlines():
                print(f"    {line}")
            return 0
    else:
        witnesses = semantic_subsumption_witnesses(by_candidate, pruned_candidate)
        if witnesses is not None:
            source, target = witnesses
            print(f"  containment witnesses ({name}'s covered flows are "
                  f"contained in {record.by}'s):")
            print(f"    source side: {source.render()}")
            print(f"    target side: {target.render()}")
            return 0
    print("  witness: syntactic only (the chase-based engine found no "
          "containment certificate)")
    return 0


def cmd_query(args) -> int:
    from .exchange.queries import certain_answers, evaluate_query, parse_query
    from .model.values import format_value

    system = _system(args)
    target = system.transform(_load_instance(args.instance, system))
    query = parse_query(args.query)
    answers = (
        certain_answers(query, target)
        if args.certain
        else evaluate_query(query, target)
    )
    for row in sorted(answers, key=repr):
        print("(" + ", ".join(format_value(v) for v in row) + ")")
    print(f"-- {len(answers)} answer(s)" + (" (certain)" if args.certain else ""))
    _emit_telemetry(system, args)
    return 0


def cmd_reproduce(_args) -> int:
    from .reproduce import render_reproduction_table, reproduce_all

    results = reproduce_all()
    print(render_reproduction_table(results))
    return 1 if any(r.verdict == "FAIL" for r in results) else 0


def cmd_minimize(args) -> int:
    """Semantically minimize a problem's transformation.

    Generates the program *without* the syntactic optimizer, removes every
    rule provably contained in another rule (chase witnesses printed), flags
    subsumed unitary mappings, and prints the minimized program.
    """

    def run(system: MappingSystem) -> None:
        minimized = system.minimize()
        # SEM001 per removed rule, then SEM002 per subsumed mapping
        removals = len(minimized.removed)
        findings = minimized.diagnostics

        print(f"# {system.problem.name}: semantic minimization "
              f"({'after' if args.syntactic_first else 'without'} the "
              f"syntactic optimizer)")
        if removals:
            print(f"removed {removals} rule(s):")
            for item in findings[:removals]:
                print(f"  {item.render()}")
        else:
            print("no removable rules: the program is already minimal")
        if minimized.subsumed:
            print(f"subsumed unitary mapping(s): {len(minimized.subsumed)}")
            for item in findings[removals:]:
                print(f"  {item.render()}")
        print()
        print("# minimized transformation")
        print(render_program(minimized.program, shorten=not args.long_names))

    return 2 if _drive(args, run, optimize=args.syntactic_first) is None else 0


def _subjects(args) -> list[tuple[str, MappingProblem, list]] | None:
    """A subject command's ``(name, problem, parse findings)`` triples.

    Problem files first (``lint`` parses any number leniently), then
    ``--scenario NAME`` or every bundled scenario (``lint`` keeps bundle
    order); None after printing the error.
    """
    lint = args.command == "lint"
    subjects = [
        (path, *_load_problem(path, lenient=lint))
        for path in (args.problems if lint else filter(None, [args.problem]))
    ]
    if args.scenario or getattr(args, "all_scenarios", False):
        from . import scenarios

        bundled = scenarios.bundled_problems()
        if args.scenario:
            if args.scenario not in bundled:
                print(
                    f"error: unknown scenario {args.scenario!r}; "
                    f"available: {', '.join(sorted(bundled))}",
                    file=sys.stderr,
                )
                return None
            bundled = {args.scenario: bundled[args.scenario]}
        names = bundled if lint else sorted(bundled)
        subjects.extend((name, bundled[name], []) for name in names)
    if not subjects:
        print(
            f"error: nothing to {args.command} (pass a problem file or "
            "--scenario NAME)",
            file=sys.stderr,
        )
        return None
    return subjects


def _drive(args, run, to_json=lambda result: result, **options) -> list | None:
    """Collect ``run(system)`` over one :class:`MappingSystem` per subject.

    ``--json`` prints the results, converted by ``to_json``: one object for
    a single subject, a list otherwise.  None after a resolution error.
    """
    subjects = _subjects(args)
    if subjects is None:
        return None
    results = [
        run(MappingSystem(problem, algorithm=args.algorithm, **options))
        for _, problem, _ in subjects
    ]
    if getattr(args, "json", False):
        payloads = [to_json(result) for result in results]
        print(json.dumps(payloads[0] if len(payloads) == 1 else payloads, indent=2))
    return results


def _gate(args, reports) -> int:
    """The exit status of ``lint``, ``certify`` and ``sql --check``.

    Writes ``reports`` (the diagnostics of each subject) as SARIF to
    ``--sarif-out`` when given; then 1 iff some diagnostic is at or above
    the ``--fail-on`` severity.  Certify's ``refuted``/``unknown`` are the
    gate at ``error``/``warning`` (REFUTED verdicts are errors, UNKNOWN
    ones warnings); ``sql --check`` fails on errors (``SQL001`` is one).
    """
    from .analysis.diagnostics import ERROR, WARNING, severity_at_least
    from .analysis.sarif import write_sarif

    if getattr(args, "sarif_out", None):
        write_sarif(args.sarif_out, *reports)
    fail_on = getattr(args, "fail_on", ERROR)
    threshold = {"refuted": ERROR, "unknown": WARNING}.get(fail_on, fail_on)
    if threshold == "never":
        return 0
    return int(any(
        severity_at_least(item.severity, threshold)
        for report in reports
        for item in report
    ))


def cmd_flow(args) -> int:
    """Dump the flow engine's solved abstract state for one problem."""

    def run(system: MappingSystem) -> dict | None:
        report = system.flow_report()
        if args.json:
            return {
                "problem": system.problem.name,
                "algorithm": args.algorithm,
                "states": report.states(),
                "stats": report.stats(),
                "functionality": [
                    {
                        "relation": record.relation,
                        "rule": repr(record.rule),
                        "confirmed": record.confirmed,
                        "undetermined": list(record.undetermined),
                    }
                    for record in report.functionality
                ],
                "diagnostics": [item.render() for item in report.diagnostics],
            }
        print(f"# {system.problem.name}: flow analysis ({args.algorithm})")
        print(report.render())
        return None

    return 2 if _drive(args, run) is None else 0


def cmd_certify(args) -> int:
    """Statically certify the target constraints of one or more problems.

    For every key, foreign key and NOT NULL constraint of the target schema
    the certifier prints PROVED (with the proof witness), REFUTED (with a
    minimal counterexample source instance, confirmed on both engines) or
    UNKNOWN, plus the program-level chase-termination bound.
    """
    reports = _drive(
        args, lambda system: system.certify(), lambda report: report.to_dict()
    )
    if reports is None:
        return 2
    status = _gate(args, [report.diagnostics for report in reports])
    if not args.json:
        for report in reports:
            print(report.render())
            print()
        proved = sum(len(r.proved) for r in reports)
        refuted = sum(len(r.refuted) for r in reports)
        unknown = sum(len(r.unknown) for r in reports)
        print(
            f"{len(reports)} subject(s): {proved} proved, {refuted} refuted, "
            f"{unknown} unknown"
        )
    return status


def cmd_sql(args) -> int:
    """Dump the compiled SQL pipeline (and, with ``--check``, its proofs).

    The pipeline is the whole-mapping compilation: intermediate DDL plus
    one INSERT per rule in stratification order, rendered for the chosen
    dialect.  ``--check`` runs the translation validator and prints one
    PROVED / UNKNOWN round-trip verdict per statement (exit 1 unless every
    statement is PROVED and no structural finding is an error).
    """
    from .sqlgen import dialect_named

    dialect = dialect_named(args.dialect)
    checks: list = []

    def run(system: MappingSystem) -> dict:
        statements = system.sql_pipeline().sql(dialect)
        report = system.sql_report() if args.check else None
        payload: dict = {
            "problem": system.problem.name,
            "algorithm": args.algorithm,
            "dialect": dialect.name,
            "statements": statements,
        }
        if report is not None:
            payload["check"] = report.to_dict()
            checks.append(report.diagnostics)
        if not args.json:
            print(f"# {system.problem.name}: SQL pipeline ({dialect.name})")
            for statement in statements:
                print(f"{statement};")
            if report is not None:
                print(report.render())
            print()
        return payload

    return 2 if _drive(args, run) is None else _gate(args, checks)


def cmd_plan(args) -> int:
    """Dump compiled operator trees (and, with ``--cost``, their bounds)."""
    if args.analyze and args.all_scenarios:
        print("error: --analyze works on a single problem", file=sys.stderr)
        return 2
    if args.analyze and not args.instance:
        print("error: --analyze requires --instance PATH", file=sys.stderr)
        return 2

    def run(system: MappingSystem) -> dict:
        name = system.problem.name
        payload = {"problem": name, "algorithm": args.algorithm}
        if args.analyze:
            source = _load_instance(args.instance, system)
            profile = system.run(source, engine="batch", analyze=True).profile
            if args.json:
                payload["analyze"] = profile.to_dict()
            else:
                print(
                    f"# {name}: batch execution plan, analyzed "
                    f"({args.algorithm})"
                )
                print(profile.render())
        elif args.cost:
            report = system.cost_report()
            if args.json:
                payload["cost"] = report.to_dict()
            else:
                print(
                    f"# {name}: static cost & cardinality bounds "
                    f"({args.algorithm})"
                )
                print(report.render())
                print()
        else:
            plan = system.plan()
            if args.json:
                payload["strata"] = [
                    {
                        "stratum": stratum,
                        "relation": relation,
                        "rules": [
                            {
                                "slots": rule_plan.n_slots,
                                "operators": [
                                    op.render() for op in rule_plan.operators()
                                ],
                            }
                            for rule_plan in plan.plans[relation]
                        ],
                    }
                    for stratum, relation in enumerate(plan.order)
                ]
            else:
                print(f"# {name}: batch execution plan ({args.algorithm})")
                print(plan.render())
        return payload

    return 2 if _drive(args, run) is None else 0


#: The opt-in lint passes in output order (after analyze's findings): flag,
#: help, and the pass over the subject's MappingSystem, whose result's
#: ``diagnostics`` lint folds in.
LINT_PASSES = (
    ("flow",
     "also run the abstract-interpretation flow engine over the generated "
     "program (FLW001/FLW002/FLW003 findings)",
     MappingSystem.flow_report),
    ("certify",
     "also run the constraint certifier (CER001/CER002/CER003/TRM001 on "
     "constraints not statically PROVED)",
     MappingSystem.certify),
    ("sql",
     "also run the SQL translation validator (SQL001 on statements without "
     "a round-trip proof; SQL002–SQL005 structural findings)",
     MappingSystem.sql_report),
    ("cost",
     "also run the cost & cardinality certifier (PLN001–PLN004: cross "
     "products, super-linear bounds, unbounded fan-out, dominated join "
     "orders)",
     MappingSystem.cost_report),
    ("semantic",
     "also run the semantic redundancy pass (SEM001/SEM002: chase-provable "
     "subsumed rules and unitary mappings)",
     MappingSystem.minimize),
    ("verify_optimizations",
     "also run the differential optimizer verifier (SEM003/SEM004 on "
     "certificate failures)",
     MappingSystem.verify),
)


def cmd_lint(args) -> int:
    from .analysis.analyzer import analyze_problem
    from .analysis.diagnostics import AnalysisReport
    from .analysis.sarif import to_sarif_json

    subjects = _subjects(args)
    if subjects is None:
        return 2
    passes = [run for flag, _, run in LINT_PASSES if getattr(args, flag)]

    reports: list[AnalysisReport] = []
    for name, problem, parse_diags in subjects:
        # The analyzer's deep checks and every pass read one system's cached
        # stages.  A problem the system refuses (None) gets no pass; the
        # deep checks report the refusal.
        report, system = analyze_problem(
            problem, deep=not args.no_deep, algorithm=args.algorithm
        )
        found = parse_diags + report.diagnostics
        if system is not None:
            for lint_pass in passes:
                try:
                    found.extend(lint_pass(system).diagnostics)
                except ReproError:
                    pass  # a failing stage: the analyzer reported it
        # Lenient parsing and re-linting the built schema can both see the
        # same defect (e.g. SCH010); keep one copy of each finding.
        merged = AnalysisReport(subject=name)
        seen = set()
        for item in found:
            key = (item.code, item.message, str(item.span))
            if key not in seen:
                seen.add(key)
                merged.add(item)
        reports.append(merged)

    status = _gate(args, reports)
    if args.format == "sarif":
        print(to_sarif_json(*reports))
    else:
        for report in reports:
            print(f"# {report.subject}")
            print(report.render())
            print()
        total_errors = sum(len(r.errors) for r in reports)
        total_warnings = sum(len(r.warnings) for r in reports)
        print(
            f"{len(reports)} subject(s): {total_errors} error(s), "
            f"{total_warnings} warning(s)"
        )
    return status


def cmd_bench_diff(args) -> int:
    """The perf-regression gate: compare two benchmark report files.

    Exit status: 0 when no wall time regressed past the threshold, 1 when
    one did, 2 on unreadable inputs or on a file without timings.
    """
    from .bench import diff_benchmarks, extract_timings, load_bench_file

    try:
        baseline = load_bench_file(args.baseline)
        current = load_bench_file(args.current)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for path, data in ((args.baseline, baseline), (args.current, current)):
        if not extract_timings(data):
            print(
                f"error: {path} has no timing keys: nothing to compare",
                file=sys.stderr,
            )
            return 2
    try:
        report = diff_benchmarks(
            baseline,
            current,
            threshold=args.threshold,
            min_seconds=args.min_seconds,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _parse_inclusive_range(text: str, flag: str) -> tuple[int, int]:
    """``"2:4"`` → ``(2, 4)`` (inclusive, like the generator config ranges)."""
    lo, sep, hi = text.partition(":")
    try:
        if not sep:
            value = int(text)
            return value, value
        return int(lo), int(hi)
    except ValueError:
        raise SystemExit(f"error: {flag} expects LO:HI, got {text!r}") from None


def cmd_eval(args) -> int:
    """Sweep generated scenarios through the verification stack.

    Exit status: 0 when the matrix passes the ``--fail-on`` gate, 1 when it
    does not, 2 on unusable arguments.
    """
    from dataclasses import replace

    from .bench.evalmatrix import EvalMatrix, eval_scenario, parse_seed_range, run_eval
    from .scenarios.generator import DEFAULT, generate_scenario
    from .sqlgen.executor import duckdb_available

    overrides = {}
    if args.cyclic:
        overrides["weakly_acyclic"] = False
    if args.coverage is not None:
        overrides["coverage"] = args.coverage
    if args.rows is not None:
        overrides["rows"] = _parse_inclusive_range(args.rows, "--rows")
    if args.source_relations is not None:
        overrides["source_relations"] = _parse_inclusive_range(
            args.source_relations, "--source-relations"
        )
    if args.target_relations is not None:
        overrides["target_relations"] = _parse_inclusive_range(
            args.target_relations, "--target-relations"
        )
    try:
        config = replace(DEFAULT, **overrides)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.seed is not None:
        seeds = [args.seed]
    else:
        try:
            seeds = parse_seed_range(args.seeds)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    duckdb = False if args.no_duckdb else None

    if args.replay:
        rows = []
        for seed in seeds:
            scenario = generate_scenario(seed, config)
            print(f"# scenario {scenario.name} (seed {seed})")
            print(scenario.dsl)
            print("# source instance")
            print(scenario.instance_text)
            row = eval_scenario(seed, config, duckdb=duckdb)
            print("# eval row")
            print(json.dumps(row.to_dict(), indent=2, sort_keys=True))
            rows.append(row)
        matrix = EvalMatrix(
            rows=rows,
            config=config,
            duckdb=duckdb if duckdb is not None else duckdb_available(),
        )
    else:
        matrix = run_eval(seeds, config, duckdb=duckdb)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(matrix.to_json())
    if args.jsonl_out:
        with open(args.jsonl_out, "w") as handle:
            handle.write(matrix.to_jsonl())
    if args.json:
        print(json.dumps(matrix.to_dict(), indent=2, sort_keys=True))
    elif not args.replay:
        print(matrix.render())
    failures = matrix.gate(args.fail_on)
    for failure in failures:
        print(f"eval gate: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_match(args) -> int:
    with open(args.source) as handle:
        source = parse_schema(handle.read(), name="source")
    with open(args.target) as handle:
        target = parse_schema(handle.read(), name="target")
    suggestions = suggest_correspondences(source, target, threshold=args.threshold)
    print("source schema SRC:")
    for line in render_schema(source).splitlines():
        print(f"  {line}")
    print()
    print("target schema TGT:")
    for line in render_schema(target).splitlines():
        print(f"  {line}")
    print()
    print("correspondences:")
    for suggestion in suggestions:
        c = suggestion.correspondence
        print(f"  {c.source!r} -> {c.target!r}  # score {suggestion.score:.2f}")
    return 0


ALGORITHM_HELP = "basic = Clio-style Algorithms 1+2; novel = the paper's 3+4"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Relational mapping system with keys, foreign keys and "
        "nullable attributes (Cabibbo, EDBT 2009).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="problem file (.txt DSL or .json)")
        p.add_argument(
            "--algorithm", choices=[BASIC, NOVEL], default=NOVEL,
            help=ALGORITHM_HELP,
        )
        p.add_argument("--no-optimize", action="store_true",
                       help="keep subsumed Datalog rules")
        p.add_argument("--semantic-pruning", action="store_true",
                       help="route pruning pairs the syntactic tests miss "
                            "through the chase-based containment engine")
        p.add_argument("--verify-optimizations", action="store_true",
                       help="certify every optimizer/resolution rewrite via "
                            "the differential verifier; fail on SEM003/SEM004")
        p.add_argument("--trace", action="store_true",
                       help="print the stage-by-stage run report (spans + counters)")
        p.add_argument("--profile", action="store_true",
                       help="print per-stage timings and counter totals")
        p.add_argument("--telemetry-out", metavar="DIR", type=_telemetry_dir,
                       help="write run_report.json, trace.chrome.json, "
                            "metrics.json, metrics.txt (OpenMetrics) and, "
                            "for run, analyze.json into DIR")

    compile_parser = sub.add_parser("compile", help="generate mapping + queries")
    common(compile_parser)
    compile_parser.add_argument("--sql", action="store_true",
                                help="emit the SQL translation instead of Datalog")
    compile_parser.add_argument("--long-names", action="store_true",
                                help="keep full Skolem functor names")
    compile_parser.set_defaults(func=cmd_compile)

    run_parser = sub.add_parser("run", help="execute the transformation")
    common(run_parser)
    run_parser.add_argument("instance", help="source instance file (DSL)")
    run_parser.add_argument(
        "--engine", choices=["reference", "batch", "sqlite"],
        default=MappingSystem.DEFAULT_ENGINE,
        help="reference = tuple-at-a-time oracle interpreter; batch = "
             "planned set-oriented runtime; sqlite = SQL translation on "
             "SQLite",
    )
    run_parser.add_argument("--enforce", action="store_true",
                            help="enforce PK/FK/NOT NULL on SQLite")
    run_parser.add_argument("--validate", action="store_true",
                            help="report target constraint violations")
    run_parser.add_argument(
        "--fail-on-violation", action="store_true",
        help="validate the target and exit 1 when any constraint is "
             "violated (implies --validate; the CI gate)",
    )
    run_parser.add_argument(
        "--explain-analyze", action="store_true",
        help="print the measured operator trees (rows in/out, batches, "
             "timings, index hits) after the target instance",
    )
    run_parser.set_defaults(func=cmd_run)

    explain_parser = sub.add_parser("explain", help="audit the generation run")
    common(explain_parser)
    explain_parser.add_argument(
        "--why-pruned", metavar="CANDIDATE",
        help="explain one prune decision (e.g. c3): the syntactic record "
             "plus the chase-based containment witness, or 'syntactic only'",
    )
    explain_parser.add_argument(
        "--instance", metavar="PATH",
        help="also execute the transformation on this source instance, so "
             "the telemetry section includes the evaluation counters",
    )
    explain_parser.add_argument(
        "--engine", choices=["reference", "batch"],
        default=MappingSystem.DEFAULT_ENGINE,
        help="engine for the --instance evaluation (default: %(default)s)",
    )
    explain_parser.set_defaults(func=cmd_explain)

    query_parser = sub.add_parser(
        "query", help="run a conjunctive query over the transformed target"
    )
    common(query_parser)
    query_parser.add_argument("instance", help="source instance file (DSL)")
    query_parser.add_argument(
        "query", help="e.g. \"(c, n) <- C2(c, m, p), P2(p, n, e)\""
    )
    query_parser.add_argument(
        "--certain", action="store_true",
        help="certain answers only (drop answers with invented values)",
    )
    query_parser.set_defaults(func=cmd_query)

    reproduce_parser = sub.add_parser(
        "reproduce", help="re-run every paper figure and print the verdicts"
    )
    reproduce_parser.set_defaults(func=cmd_reproduce)

    def subject_parser(name, help, verb, json_help=None, all_scenarios=True):
        """A subcommand with the analysis subject flags (see _subjects)."""
        p = sub.add_parser(name, help=help)
        if name == "lint":
            p.add_argument(
                "problems", nargs="*",
                help="problem files (.txt DSL, parsed leniently, or .json)",
            )
        else:
            p.add_argument(
                "problem", nargs="?", help="problem file (.txt DSL or .json)"
            )
        p.add_argument(
            "--scenario", metavar="NAME", help=f"{verb} one bundled scenario"
        )
        if all_scenarios:
            p.add_argument(
                "--all-scenarios", action="store_true",
                help=f"{verb} every bundled scenario (the CI configuration)",
            )
        p.add_argument(
            "--algorithm", choices=[BASIC, NOVEL], default=NOVEL,
            help=ALGORITHM_HELP,
        )
        if json_help:
            p.add_argument("--json", action="store_true", help=json_help)
        return p

    minimize_parser = subject_parser(
        "minimize",
        "semantically minimize the generated transformation "
        "(chase-based containment, witnesses printed)",
        "minimize",
        all_scenarios=False,
    )
    minimize_parser.add_argument(
        "--syntactic-first", action="store_true",
        help="run the syntactic optimizer first and only report what the "
             "semantic pass removes on top of it",
    )
    minimize_parser.add_argument(
        "--long-names", action="store_true",
        help="keep full Skolem functor names",
    )
    minimize_parser.set_defaults(func=cmd_minimize)

    flow_parser = subject_parser(
        "flow",
        "dump the abstract-interpretation fixpoint over the generated "
        "program (nullability, provenance, key-origin)",
        "analyze",
        json_help="emit the per-position states, solver stats, functionality "
                  "records and findings as JSON",
        all_scenarios=False,
    )
    flow_parser.set_defaults(func=cmd_flow)

    certify_parser = subject_parser(
        "certify",
        "statically prove (or refute with a counterexample instance) "
        "every target key, foreign-key and NOT NULL constraint",
        "certify",
        json_help="emit the verdicts (witnesses and counterexamples included) "
                  "as JSON",
    )
    certify_parser.add_argument(
        "--sarif-out", metavar="PATH",
        help="write the CER/TRM findings as a SARIF 2.1.0 log to PATH",
    )
    certify_parser.add_argument(
        "--fail-on", choices=["refuted", "unknown", "never"],
        default="refuted",
        help="exit 1 on any REFUTED constraint (default), on anything not "
             "PROVED (unknown), or never",
    )
    certify_parser.set_defaults(func=cmd_certify)

    sql_parser = subject_parser(
        "sql",
        "dump the compiled SQL pipeline (intermediate DDL + stratified "
        "inserts) and, with --check, its round-trip proofs",
        "compile",
        json_help="emit the statements (and --check verdicts) as JSON",
    )
    sql_parser.add_argument(
        "--dialect", choices=["sqlite", "duckdb"], default="sqlite",
        help="render the pipeline for this SQL dialect (default: sqlite)",
    )
    sql_parser.add_argument(
        "--check", action="store_true",
        help="run the translation validator: lower each statement back to "
             "a conjunctive query and prove it equivalent to its rule "
             "(exit 1 unless everything is PROVED)",
    )
    sql_parser.set_defaults(func=cmd_sql)

    plan_parser = subject_parser(
        "plan",
        "dump the batch runtime's compiled operator trees "
        "(scan/join/filter/antijoin/project per rule)",
        "plan",
        json_help="emit the per-stratum operator trees as JSON",
    )
    plan_parser.add_argument(
        "--cost", action="store_true",
        help="print the static cost & cardinality report instead: sound "
             "symbolic row bounds (polynomials in the source relation "
             "sizes) per operator, rule and derived relation",
    )
    plan_parser.add_argument(
        "--analyze", action="store_true",
        help="execute on --instance and annotate each operator with its "
             "measured rows/batches/timings (EXPLAIN ANALYZE)",
    )
    plan_parser.add_argument(
        "--instance", metavar="PATH",
        help="source instance file for --analyze",
    )
    plan_parser.set_defaults(func=cmd_plan)

    lint_parser = subject_parser(
        "lint",
        "statically analyze problems (schemas, mappings, Datalog)",
        "lint",
    )
    lint_parser.add_argument(
        "--no-deep", action="store_true",
        help="static checks only: skip the pipeline-backed MAP/DLG checks",
    )
    for flag, help, _ in LINT_PASSES:
        lint_parser.add_argument(
            "--" + flag.replace("_", "-"), action="store_true", help=help
        )
    lint_parser.add_argument(
        "--format", choices=["text", "sarif"], default="text",
        help="output format (sarif = SARIF 2.1.0 JSON on stdout)",
    )
    lint_parser.add_argument(
        "--sarif-out", metavar="PATH",
        help="also write the SARIF 2.1.0 log to PATH",
    )
    lint_parser.add_argument(
        "--fail-on", choices=["error", "warning", "never"], default="error",
        help="lowest severity that makes the exit status 1 (default: error)",
    )
    lint_parser.set_defaults(func=cmd_lint)

    bench_parser = sub.add_parser(
        "bench-diff",
        help="compare two benchmark report files and fail on regressions",
    )
    bench_parser.add_argument(
        "baseline", help="baseline benchmark JSON (e.g. BENCH_scaling.json)"
    )
    bench_parser.add_argument(
        "current", help="current benchmark JSON to compare against it"
    )
    bench_parser.add_argument(
        "--threshold", type=float, default=2.0, metavar="RATIO",
        help="current/baseline ratio above which a timing is a regression "
             "(default: 2.0; must exceed 1.0 — benchmark runners are noisy)",
    )
    bench_parser.add_argument(
        "--min-seconds", type=float, default=0.001, metavar="SECS",
        help="ignore timings whose baseline is below this noise floor "
             "(default: 0.001)",
    )
    bench_parser.add_argument(
        "--json", action="store_true",
        help="emit the comparison report as JSON",
    )
    bench_parser.set_defaults(func=cmd_bench_diff)

    eval_parser = sub.add_parser(
        "eval",
        help="sweep generated scenarios through the full verification stack",
    )
    eval_parser.add_argument(
        "--seeds", default="0:20", metavar="A:B",
        help="seed range (half-open, e.g. 0:100) or comma list (default: 0:20)",
    )
    eval_parser.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="evaluate a single seed (overrides --seeds)",
    )
    eval_parser.add_argument(
        "--replay", action="store_true",
        help="print each scenario's DSL, source instance and eval row "
             "(seed-exact reproduction of a failing matrix entry)",
    )
    eval_parser.add_argument(
        "--cyclic", action="store_true",
        help="generate cyclic source schemas (SCH010 exercise; rows become "
             "lint-error instead of running the pipeline)",
    )
    eval_parser.add_argument(
        "--coverage", type=float, default=None, metavar="FRACTION",
        help="correspondence coverage fraction (default: generator default)",
    )
    eval_parser.add_argument(
        "--rows", default=None, metavar="LO:HI",
        help="rows per source relation, inclusive (default: generator default)",
    )
    eval_parser.add_argument(
        "--source-relations", default=None, metavar="LO:HI",
        help="source relation count, inclusive",
    )
    eval_parser.add_argument(
        "--target-relations", default=None, metavar="LO:HI",
        help="target relation count, inclusive",
    )
    eval_parser.add_argument(
        "--no-duckdb", action="store_true",
        help="skip the DuckDB differential leg even when duckdb is importable",
    )
    eval_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the matrix as provenance-stamped JSON",
    )
    eval_parser.add_argument(
        "--jsonl-out", default=None, metavar="PATH",
        help="write the matrix as JSONL, one row per line",
    )
    eval_parser.add_argument(
        "--json", action="store_true",
        help="print the matrix as JSON instead of the table",
    )
    eval_parser.add_argument(
        "--fail-on", choices=("disagreement", "error", "never"),
        default="disagreement",
        help="exit 1 on engine disagreement or definite negative verdicts "
             "(default), additionally on incomplete rows (error), or never",
    )
    eval_parser.set_defaults(func=cmd_eval)

    match_parser = sub.add_parser("match", help="suggest correspondences")
    match_parser.add_argument("source", help="source schema file (DSL)")
    match_parser.add_argument("target", help="target schema file (DSL)")
    match_parser.add_argument("--threshold", type=float, default=0.55)
    match_parser.set_defaults(func=cmd_match)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
