"""A guided walkthrough of Example C.1 — every stage of Algorithm 4.

Reproduces, step by step and with commentary, the paper's most detailed
derivation (Appendix C.1: CARS3 → CARS2a, where every car must have an
owner): logical relations, candidates and pruning, skolemization with nested
functors, the functionality check, key-conflict identification, resolution
with sibling propagation, and the final program and instance (Figure 11).

Run:  python examples/paper_walkthrough.py
"""

from repro.core.conflicts import find_all_conflicts
from repro.core.functionality import PairChecker
from repro.core.pipeline import MappingSystem
from repro.core.query_generation import rewrite_to_unitary
from repro.core.skolem import skolemize_schema_mapping
from repro.dsl import FunctorAbbreviator, render_program, render_schema_mapping
from repro.scenarios.cars import cars3_source_instance, figure10_problem


def main() -> None:
    problem = figure10_problem()
    system = MappingSystem(problem)
    abbreviator = FunctorAbbreviator()

    print("STEP 0 — the mapping problem (Figure 10)")
    print(f"  source: {problem.source_schema!r}")
    print(f"  target: {problem.target_schema!r}")
    print(f"  {len(problem.correspondences)} correspondences\n")

    report = system.schema_mapping_result().report
    print("STEP 1 — logical relations (chase)")
    for tableau in report.source_tableaux:
        print(f"  source: {tableau!r}")
    for tableau in report.target_tableaux:
        print(f"  target: {tableau!r}")

    print("\nSTEP 2 — schema mapping (after candidate generation and pruning)")
    print(render_schema_mapping(system.schema_mapping))

    print("\nSTEP 3 — skolemization (note the nested f_n(f_p(c)) functors)")
    skolemized = skolemize_schema_mapping(
        list(system.schema_mapping), problem.target_schema
    )
    for mapping in skolemized:
        print(f"  {abbreviator.shorten(repr(mapping))}")

    print("\nSTEP 4 — unitary rewriting (the paper's subscripted arrows)")
    unitary = rewrite_to_unitary(skolemized)
    for mapping in unitary:
        print(f"  {mapping.name}: {abbreviator.shorten(repr(mapping))}")

    print("\nSTEP 5 — functionality check (each unitary mapping)")
    checker = PairChecker(unitary, problem.source_schema, problem.target_schema)
    for index, mapping in enumerate(unitary):
        verdict = checker.violation(index)
        print(f"  {mapping.name}: {'functional' if verdict is None else verdict}")

    print("\nSTEP 6 — key conflicts")
    conflicts = find_all_conflicts(checker)
    for conflict in conflicts:
        kind = "hard" if conflict.is_hard else "soft"
        print(f"  [{kind}] {conflict} (preferred: {conflict.preferred})")
    print("  (the invented-key P2a mapping conflicts with nothing — Ex 6.3)")

    print("\nSTEP 7 — resolution (negation + sibling propagation) and the program")
    print(render_program(system.transformation))

    print("\nSTEP 8 — the data transformation (Figure 11)")
    print(system.transform(cars3_source_instance()).to_text())


if __name__ == "__main__":
    main()
