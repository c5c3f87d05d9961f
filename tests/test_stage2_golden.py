"""Golden stage-2 output: key management, the programs and the verifier.

Stage 2 (skolemization, the functionality check, key-conflict
identification and resolution, program building and optimization) is run
through a :class:`~repro.core.pipeline.MappingSystem` on the bundled
problems (under both algorithms), on the deep-compile problems
``chain_problem(4, 6, 8)`` and ``wide_problem(8, 10, 12)``, on the
generator's DEFAULT seeds 0–199 and on ``fixtures/broken_mapping``.  For
each subject the fixture ``tests/fixtures/stage2.json`` holds the key
conflicts, the fused mapping names, the functor renaming, the negation
counts by origin and the SHA-256 of the rendered unoptimized and optimized
programs; a subject whose stage 2 fails holds the exception type and every
diagnostic the error carries instead.  For the bundled problems under the
novel algorithm, for the chain problems and for the DEFAULT seeds whose
optimizer removes a rule (``VERIFY_SEEDS``) it also holds every
:class:`VerificationReport` check.  Every subject that compiles also holds
its certificate: the verdict counts and the SHA-256 of the certification
report's JSON, plus the full key verdicts when one of them is REFUTED or
UNKNOWN.

Regenerate after an intentional change with::

    REGEN_STAGE2=1 PYTHONPATH=src python -m pytest tests/test_stage2_golden.py -q
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.analysis.semantic.containment import reset_default_engine
from repro.core.pipeline import MappingSystem
from repro.core.schema_mapping import BASIC, NOVEL
from repro.dsl.parser import parse_problem
from repro.errors import ReproError
from repro.scenarios import bundled_problems, generated_problems
from repro.scenarios.synthetic import chain_problem, wide_problem

HERE = os.path.dirname(__file__)
FIXTURE = os.path.join(HERE, "fixtures", "stage2.json")
BROKEN = os.path.join(HERE, "fixtures", "broken_mapping.problem.txt")
FLEET_SEEDS = range(200)
#: the DEFAULT seeds whose optimized program has fewer rules than the
#: unoptimized one, so the verifier's optimizer certificates have work to do
VERIFY_SEEDS = frozenset((
    11, 16, 17, 20, 26, 32, 39, 43, 47, 49, 51, 53, 58, 62, 64, 66, 76, 78,
    85, 96, 102, 106, 107, 117, 119, 124, 128, 140, 144, 150, 155, 165, 170,
    179, 186, 187, 195,
))


def _subjects() -> dict[str, tuple]:
    """Every golden subject by name: ``(problem, algorithm, verify)``."""
    subjects = {}
    for name, problem in sorted(bundled_problems().items()):
        subjects[name] = (problem, NOVEL, True)
        subjects[f"{name}+basic"] = (problem, BASIC, False)
    for depth in (4, 6, 8):
        subjects[f"chain-{depth}"] = (chain_problem(depth), NOVEL, True)
    for width in (8, 10, 12):
        subjects[f"wide-{width}"] = (wide_problem(width), NOVEL, False)
    verified = {f"gen-{seed}" for seed in VERIFY_SEEDS}
    for name, problem in generated_problems(FLEET_SEEDS).items():
        subjects[name] = (problem, NOVEL, name in verified)
    with open(BROKEN) as handle:
        subjects["broken_mapping"] = (
            parse_problem(handle.read(), name="broken_mapping"), NOVEL, False
        )
    return subjects


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stage2(problem, algorithm: str, verify: bool) -> dict:
    system = MappingSystem(problem, algorithm=algorithm)
    try:
        result = system.query_result()
    except ReproError as error:
        return {
            "error": type(error).__name__,
            "diagnostics": [
                [item.code, item.severity, item.message, item.subject]
                for item in error.diagnostics
            ],
        }
    entry = {
        "unoptimized": _digest(repr(result.unoptimized)),
        "optimized": _digest(repr(result.program)),
        "rules": [len(result.unoptimized.rules), len(result.program.rules)],
    }
    resolution = result.resolution
    if resolution is not None:
        entry.update(
            conflicts=[str(conflict) for conflict in resolution.conflicts],
            fused=[mapping.name for mapping in resolution.fused],
            functor_renaming=resolution.functor_renaming,
            negations_by_origin=resolution.negations_by_origin,
        )
    if verify:
        reset_default_engine()  # witness names must not depend on test order
        entry["verification"] = [
            [check.name, check.subject, check.ok, check.detail]
            for check in system.verify().checks
        ]
    entry["certify"] = _certify(system)
    return entry


def _certify(system: MappingSystem) -> dict:
    """The subject's certificate: its counts, digest and open key verdicts."""
    reset_default_engine()  # witness names must not depend on test order
    report = system.certify()
    entry = {
        "counts": report.counts(),
        "digest": _digest(json.dumps(report.to_dict(), sort_keys=True)),
    }
    keys = [verdict.to_dict() for verdict in report.of_kind("key")]
    if any(verdict["verdict"] != "PROVED" for verdict in keys):
        entry["keys"] = keys
    return entry


@pytest.fixture(scope="module")
def subjects():
    return _subjects()


@pytest.fixture(scope="module")
def golden(subjects):
    if os.environ.get("REGEN_STAGE2"):
        payload = {name: _stage2(*subject) for name, subject in subjects.items()}
        with open(FIXTURE, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True, ensure_ascii=False)
            handle.write("\n")
    with open(FIXTURE) as handle:
        return json.load(handle)


def test_fixture_covers_every_subject(subjects, golden):
    assert sorted(golden) == sorted(subjects)


def test_verified_seeds_are_those_the_optimizer_shrinks(golden):
    shrunk = {
        int(name.removeprefix("gen-"))
        for name, entry in golden.items()
        if name.startswith("gen-") and "rules" in entry
        and entry["rules"][0] > entry["rules"][1]
    }
    assert shrunk == VERIFY_SEEDS


def test_stage2_matches_fixture(subjects, golden):
    drifted = [
        name
        for name, subject in subjects.items()
        if _stage2(*subject) != golden[name]
    ]
    assert not drifted, (
        f"stage-2 output drifted for {drifted[:10]}; if the change is "
        "intentional, regenerate with REGEN_STAGE2=1"
    )
