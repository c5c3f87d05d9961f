"""Golden programs of the generator's larger shape (seeds 10–21).

Each seed of the larger shape (4–6 source relations, 3–5 target relations,
2–4 payload attributes) is compiled through a
:class:`~repro.core.pipeline.MappingSystem` and certified.  The SHA-256 of
its rendered unoptimized and optimized programs and its certificate (the
verdict counts and the digest of the report's JSON) are compared against
``tests/fixtures/larger_shape.json``.  Compiling and certifying the twelve
seeds takes about 40 s on 2 vCPUs, so this is a script, not a tier-1 test::

    PYTHONPATH=src python -m tests.larger_shape

It exits 1 and names the seeds whose programs drifted.  Regenerate after an
intentional change with ``REGEN_LARGER_SHAPE=1``.
"""

from __future__ import annotations

import json
import os
import sys

from repro.core.pipeline import MappingSystem
from repro.scenarios.generator import GeneratorConfig, generate_scenario

from .test_stage2_golden import _certify, _digest

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "larger_shape.json")
LARGER = GeneratorConfig(
    source_relations=(4, 6),
    target_relations=(3, 5),
    payload_attributes=(2, 4),
)
SEEDS = range(10, 22)


def programs(seed: int) -> dict:
    """The digests and rule counts of one seed's compiled programs, and
    its certificate."""
    system = MappingSystem(generate_scenario(seed, LARGER).problem)
    result = system.query_result()
    return {
        "unoptimized": _digest(repr(result.unoptimized)),
        "optimized": _digest(repr(result.program)),
        "rules": [len(result.unoptimized.rules), len(result.program.rules)],
        "certify": _certify(system),
    }


def main() -> int:
    payload = {}
    for seed in SEEDS:
        payload[f"seed-{seed}"] = programs(seed)
        print(f"larger shape, seed {seed}: rules {payload[f'seed-{seed}']['rules']}")
    if os.environ.get("REGEN_LARGER_SHAPE"):
        with open(FIXTURE, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return 0
    with open(FIXTURE) as handle:
        golden = json.load(handle)
    drifted = sorted(set(golden) ^ set(payload)) + [
        name for name in payload if name in golden and payload[name] != golden[name]
    ]
    if drifted:
        print(f"larger-shape programs drifted: {drifted}; if the change is "
              "intentional, regenerate with REGEN_LARGER_SHAPE=1")
        return 1
    print(f"{len(payload)} larger-shape seed(s) match {os.path.basename(FIXTURE)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
