"""The benchmark's three workloads: what they feed the mapping system.

A workload turns a seed into :class:`Problem` inputs the way a user would
hold them: mapping problems and source instances as DSL text, loaded with
the DSL parser.  Everything here is set-up; the measured phase lives in
``measure.py``.  The same ``(workload, seed)`` always yields the same inputs.

* ``bulk-exchange`` -- figure 1 (CARS3, a soft-conflict negation), figure 12
  (CARS4, two foreign keys) and figure 14 (CARS2, a nullable foreign key) on
  ``cars*_instance(n/2, n)``: n = 50 000 (75k-125k source tuples per
  problem) for the batch, reference and workers=2 engines, n = 5 000 for
  SQLite, whose joins grow superlinearly there.
* ``fleet`` -- generator seeds 0-199 at the ``DEFAULT`` shape (the set
  ``repro eval`` gates): compile once, verify, run five small instances.
* ``deep-compile`` -- ``chain_problem(4|6|8)`` and ``wide_problem(8|10|12)``:
  deep nullable-FK chases and 2^n partial tableaux.

Every problem also carries five small generated instances, so every
end-to-end metric is measured on every workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.dsl.parser import parse_instance
from repro.dsl.renderer import render_instance, render_problem
from repro.model.instance import Instance
from repro.scenarios.cars import figure1_problem, figure12_problem, figure14_problem
from repro.scenarios.generator import DEFAULT, generate_instance, generate_scenario
from repro.scenarios.synthetic import (
    cars2_instance,
    cars3_instance,
    cars4_instance,
    chain_problem,
    wide_problem,
)

#: small generated instances run per problem on every engine
SMALL_INSTANCES = 5
#: source size parameter n of cars*_instance(n/2, n): in-process engines
BULK_N = 50_000
#: the same for SQLite (at 10^5 tuples one SQLite run takes minutes)
SQLITE_N = 5_000
FLEET_SEEDS = range(200)
CHAIN_DEPTHS = (4, 6, 8)
WIDE_WIDTHS = (8, 10, 12)


@dataclass
class Problem:
    """One mapping problem as DSL text plus the source instances it runs on."""

    name: str
    text: str
    small: list[Instance]
    #: engine group ("bulk" or "sqlite") -> large source instance
    bulk: dict[str, Instance] = field(default_factory=dict)


def load(instance: Instance, parse: Callable) -> Instance:
    """Render ``instance`` as DSL text and load it back with the parser."""
    return parse(render_instance(instance), instance.schema)


def _small(schema, seed: int, salt: int, parse) -> list[Instance]:
    return [
        load(generate_instance(schema, seed * 1_000_003 + salt * 10 + i), parse)
        for i in range(SMALL_INSTANCES)
    ]


def bulk_exchange(seed: int, reduced: bool = False, parse=parse_instance) -> list[Problem]:
    bulk_n, sqlite_n = (400, 100) if reduced else (BULK_N, SQLITE_N)
    makers = [
        (figure1_problem(), cars3_instance),
        (figure12_problem(), cars4_instance),
        (figure14_problem(), cars2_instance),
    ]
    problems = []
    for salt, (problem, make) in enumerate(makers):
        problems.append(
            Problem(
                name=problem.name,
                text=render_problem(problem),
                small=_small(problem.source_schema, seed, salt, parse),
                bulk={
                    "bulk": load(make(bulk_n // 2, bulk_n, seed=seed), parse),
                    "sqlite": load(make(sqlite_n // 2, sqlite_n, seed=seed), parse),
                },
            )
        )
    return problems


def fleet(seed: int, reduced: bool = False, parse=parse_instance) -> list[Problem]:
    problems = []
    for gen_seed in FLEET_SEEDS[:5] if reduced else FLEET_SEEDS:
        problem = generate_scenario(gen_seed, DEFAULT).problem
        problems.append(
            Problem(
                name=problem.name,
                text=render_problem(problem),
                small=_small(problem.source_schema, seed, gen_seed, parse),
            )
        )
    return problems


def deep_compile(seed: int, reduced: bool = False, parse=parse_instance) -> list[Problem]:
    chains, wides = ((2, 3), (3, 4)) if reduced else (CHAIN_DEPTHS, WIDE_WIDTHS)
    built = [chain_problem(d) for d in chains] + [wide_problem(n) for n in wides]
    return [
        Problem(
            name=problem.name,
            text=render_problem(problem),
            small=_small(problem.source_schema, seed, salt, parse),
        )
        for salt, problem in enumerate(built)
    ]


#: workload name -> (seed, reduced, parse) -> problems; ``parse`` loads
#: instance text and ``reduced`` shrinks every size for the self-test
WORKLOADS = {
    "bulk-exchange": bulk_exchange,
    "fleet": fleet,
    "deep-compile": deep_compile,
}
