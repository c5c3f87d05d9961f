"""SARIF 2.1.0 serialization of analysis reports.

`SARIF <https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>`_
is the interchange format CI systems (GitHub code scanning among them)
ingest for static-analysis results.  :func:`to_sarif` emits one ``run`` of
the ``repro-lint`` driver: every registered code becomes a ``rule`` (so
viewers can show titles and help even for codes with zero findings), every
diagnostic a ``result`` with its message, level and — when a source span is
attached — a physical location.

The emitted shape is pinned by ``docs/sarif_lint.schema.json`` and checked
in CI with the :mod:`repro.obs.schema` validator.
"""

from __future__ import annotations

import json
from typing import Iterable

from .diagnostics import CODES, INFO, Diagnostic, SourceSpan

#: SARIF calls the lowest level "note", not "info".
_LEVELS = {INFO: "note"}

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://docs.oasis-open.org/sarif/sarif/v2.1.0/cos02/schemas/"
    "sarif-schema-2.1.0.json"
)


def _level(severity: str) -> str:
    return _LEVELS.get(severity, severity)


def _driver_version() -> str:
    from .. import __version__

    return __version__


def _rules() -> list[dict]:
    rules = []
    for info in CODES.values():
        rule = {
            "id": info.code,
            "name": info.title.title().replace(" ", "").replace("/", ""),
            "shortDescription": {"text": info.title},
            "defaultConfiguration": {"level": _level(info.severity)},
        }
        if info.help:
            rule["fullDescription"] = {"text": info.help}
            rule["help"] = {"text": f"{info.help} (paper {info.section})"}
        rules.append(rule)
    return rules


def _location(span: SourceSpan) -> dict:
    region: dict = {"startLine": span.line}
    if span.column is not None:
        region["startColumn"] = span.column
    if span.end_line is not None:
        region["endLine"] = span.end_line
    if span.end_column is not None:
        region["endColumn"] = span.end_column
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": span.file or "<input>"},
            "region": region,
        }
    }


def _result(item: Diagnostic, rule_index: dict[str, int]) -> dict:
    result: dict = {
        "ruleId": item.code,
        "level": _level(item.severity),
        "message": {"text": item.message},
    }
    index = rule_index.get(item.code)
    if index is not None:
        result["ruleIndex"] = index
    if item.span is not None:
        result["locations"] = [_location(item.span)]
    properties: dict = {}
    if item.subject:
        properties["subject"] = item.subject
    if item.witness:
        properties["witness"] = item.witness
    if properties:
        result["properties"] = properties
    return result


def to_sarif(*reports: Iterable[Diagnostic]) -> dict:
    """Serialize one or more reports (an ``AnalysisReport`` or any pass
    result's ``diagnostics`` list each) as a SARIF 2.1.0 log dict."""
    rules = _rules()
    rule_index = {rule["id"]: position for position, rule in enumerate(rules)}
    results = [
        _result(item, rule_index) for report in reports for item in report
    ]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": _driver_version(),
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def to_sarif_json(*reports: Iterable[Diagnostic], indent: int = 2) -> str:
    """The SARIF log as a JSON string (stable key order)."""
    return json.dumps(to_sarif(*reports), indent=indent, sort_keys=False)


def write_sarif(path: str, *reports: Iterable[Diagnostic]) -> None:
    """Serialize ``reports`` and write the SARIF log to ``path``.

    The single writer behind every ``--sarif-out`` CLI flag (``lint`` and
    ``certify``, through their shared exit gate): one trailing newline,
    stable key order.
    """
    with open(path, "w") as handle:
        handle.write(to_sarif_json(*reports) + "\n")
