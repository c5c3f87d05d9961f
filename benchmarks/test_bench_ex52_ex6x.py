"""Examples 5.2 and 6.1–6.8: the intermediate stages of both algorithms."""

from repro.core.candidates import generate_candidates
from repro.core.chase import MODIFIED, logical_relations
from repro.core.conflicts import find_all_conflicts
from repro.core.functionality import PairChecker
from repro.core.pruning import prune_candidates
from repro.core.query_generation import generate_queries, rewrite_to_unitary
from repro.core.resolution import resolve_key_conflicts
from repro.core.schema_mapping import generate_schema_mapping
from repro.core.skolem import skolemize_schema_mapping
from repro.scenarios import cars


def _figure1():
    return cars.figure1_problem()


def test_example_5_2_candidate_generation(benchmark):
    problem = _figure1()
    source = logical_relations(problem.source_schema, mode=MODIFIED)
    target = logical_relations(problem.target_schema, mode=MODIFIED)

    def run():
        return generate_candidates(source, target, problem.correspondences)

    generation = benchmark(run)
    benchmark.extra_info["skeletons"] = generation.skeleton_count
    benchmark.extra_info["candidates"] = len(generation.candidates)
    assert generation.skeleton_count == 9  # Example 5.2: nine skeletons


def test_example_5_2_pruning(benchmark):
    problem = _figure1()
    source = logical_relations(problem.source_schema, mode=MODIFIED)
    target = logical_relations(problem.target_schema, mode=MODIFIED)
    generation = generate_candidates(source, target, problem.correspondences)

    def run():
        return prune_candidates(generation.candidates)

    result = benchmark(run)
    assert len(result.kept) == 3  # the paper's final schema mapping


def _unitary(problem):
    schema_mapping = generate_schema_mapping(
        problem.source_schema, problem.target_schema, problem.correspondences
    ).schema_mapping
    skolemized = skolemize_schema_mapping(list(schema_mapping), problem.target_schema)
    return rewrite_to_unitary(skolemized)


def test_example_6_1_unitary_rewriting(benchmark):
    problem = _figure1()
    schema_mapping = generate_schema_mapping(
        problem.source_schema, problem.target_schema, problem.correspondences
    ).schema_mapping

    def run():
        skolemized = skolemize_schema_mapping(
            list(schema_mapping), problem.target_schema
        )
        return rewrite_to_unitary(skolemized)

    unitary = benchmark(run)
    assert len(unitary) == 4  # Example 6.1's four unitary mappings


def test_example_6_3_conflict_identification(benchmark):
    problem = _figure1()
    unitary = _unitary(problem)

    def run():
        return find_all_conflicts(
            PairChecker(unitary, problem.source_schema, problem.target_schema)
        )

    conflicts = benchmark(run)
    assert len(conflicts) == 1  # the soft conflict on C2.person
    assert conflicts[0].attribute == "person"


def test_example_6_4_resolution(benchmark):
    problem = _figure1()
    unitary = _unitary(problem)

    def run():
        return resolve_key_conflicts(
            PairChecker(unitary, problem.source_schema, problem.target_schema)
        )

    final, report = benchmark(run)
    disabled = [m for m in final if m.premise.negated]
    assert len(disabled) == 1  # only the null-producing mapping is rewritten


def test_example_6_8_full_query_generation(benchmark):
    problem = _figure1()
    schema_mapping = generate_schema_mapping(
        problem.source_schema, problem.target_schema, problem.correspondences
    ).schema_mapping

    def run():
        return generate_queries(schema_mapping)

    result = benchmark(run)
    heads = sorted(r.head_relation for r in result.program.rules)
    assert heads == ["C2", "C2", "OCtmp", "P2"]  # the paper's final program
