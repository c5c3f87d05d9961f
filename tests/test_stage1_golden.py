"""Golden stage-1 output: the prune log and the kept candidates.

Stage 1 (chase, candidate generation, pruning) is run on the bundled
problems (with and without semantic pruning, and under the basic
algorithm), on the deep-compile problems ``chain_problem(4, 6, 8)`` and
``wide_problem(8, 10, 12)``, and on the generator's DEFAULT seeds 0–199.
The 25 seeds on which semantic pruning prunes more than the syntactic tests
also run with it (``gen-N+semantic``).
For each, the ordered ``PruneRecord`` fields (``name``, ``description``,
``reason``, ``rule``, ``by``) are hashed, and the digest, the record count
and the kept candidate names are compared against
``tests/fixtures/stage1.json``.  Any change to which candidates are pruned,
why, by whom, or in which order shows up as a fixture diff.

Regenerate after an intentional change with::

    REGEN_STAGE1=1 PYTHONPATH=src python -m pytest tests/test_stage1_golden.py -q
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.core import candidates
from repro.core.schema_mapping import BASIC, NOVEL, generate_schema_mapping
from repro.scenarios import bundled_problems, generated_problems
from repro.scenarios.synthetic import chain_problem, wide_problem

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "stage1.json")

#: variant suffix -> (algorithm, semantic_pruning)
BUNDLED_VARIANTS = {
    "": (NOVEL, False),
    "+semantic": (NOVEL, True),
    "+basic": (BASIC, False),
}
FLEET_SEEDS = range(200)
#: the DEFAULT seeds whose semantic run has a ``(semantic)`` prune record
#: (the bundled ``+semantic`` subjects all equal their plain runs)
SEMANTIC_SEEDS = (
    8, 11, 16, 17, 26, 32, 39, 43, 47, 51, 53, 58, 66, 85, 96, 107, 124, 129,
    140, 144, 150, 165, 179, 186, 187,
)


def _subjects() -> dict[str, tuple]:
    """Every golden subject by name: ``(problem, algorithm, semantic)``."""
    subjects = {}
    for name, problem in sorted(bundled_problems().items()):
        for suffix, (algorithm, semantic) in BUNDLED_VARIANTS.items():
            subjects[f"{name}{suffix}"] = (problem, algorithm, semantic)
    for depth in (4, 6, 8):
        subjects[f"chain-{depth}"] = (chain_problem(depth), NOVEL, False)
    for width in (8, 10, 12):
        subjects[f"wide-{width}"] = (wide_problem(width), NOVEL, False)
    for name, problem in generated_problems(FLEET_SEEDS).items():
        subjects[name] = (problem, NOVEL, False)
    for name, problem in generated_problems(SEMANTIC_SEEDS).items():
        subjects[f"{name}+semantic"] = (problem, NOVEL, True)
    return subjects


def _stage1(problem, algorithm: str, semantic: bool) -> dict:
    report = generate_schema_mapping(
        problem.source_schema,
        problem.target_schema,
        problem.correspondences,
        algorithm=algorithm,
        semantic_pruning=semantic,
    ).report
    records = [
        [r.name, r.description, r.reason, r.rule, r.by] for r in report.pruned
    ]
    digest = hashlib.sha256(
        json.dumps(records, ensure_ascii=False).encode()
    ).hexdigest()
    return {
        "pruned": len(records),
        "digest": digest,
        "kept": [candidate.name for candidate in report.kept],
    }


@pytest.fixture(scope="module")
def subjects():
    return _subjects()


@pytest.fixture(scope="module")
def golden(subjects):
    if os.environ.get("REGEN_STAGE1"):
        payload = {name: _stage1(*subject) for name, subject in subjects.items()}
        with open(FIXTURE, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True, ensure_ascii=False)
            handle.write("\n")
    with open(FIXTURE) as handle:
        return json.load(handle)


def test_fixture_covers_every_subject(subjects, golden):
    assert sorted(golden) == sorted(subjects)


def test_stage1_matches_fixture(subjects, golden):
    drifted = [
        name
        for name, subject in subjects.items()
        if _stage1(*subject) != golden[name]
    ]
    assert not drifted, (
        f"stage-1 output drifted for {drifted[:10]}; if the change is "
        "intentional, regenerate with REGEN_STAGE1=1"
    )


def test_coverage_analysed_once_per_reference_and_tableau(monkeypatch):
    """Each (referenced attribute, tableau) pair is walked once, and each
    distinct chase-decision walk's coverage mappings are built once.

    The source side of a correspondence depends only on the source tableau
    and the target side only on the target tableau, so candidate generation
    costs (|S| + |T|) · |C| coverage walks, not 2 · |S| · |T| · |C|;
    sibling tableaux whose walks read the same decisions share one result.
    """
    walks, built = [], []
    walk, build = candidates.coverage_walk, candidates.walked_mappings

    def walk_spy(reference, tableau):
        walks.append((reference, id(tableau)))
        return walk(reference, tableau)

    def build_spy(reference, found):
        built.append((reference, found))
        return build(reference, found)

    monkeypatch.setattr(candidates, "coverage_walk", walk_spy)
    monkeypatch.setattr(candidates, "walked_mappings", build_spy)
    problem = chain_problem(4)
    report = generate_schema_mapping(
        problem.source_schema, problem.target_schema, problem.correspondences
    ).report
    sources, targets = len(report.source_tableaux), len(report.target_tableaux)
    assert sources > 1 and targets > 1
    assert len(walks) == (sources + targets) * len(problem.correspondences)
    assert len(set(walks)) == len(walks)
    assert len(set(built)) == len(built) < len(walks)
