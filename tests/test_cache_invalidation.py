"""The MappingSystem result cache under mutation of the compiled problem.

A system compiles a bundled problem and caches its stages and passes.  The
problem is then mutated in place — an attribute's nullability flipped, a
correspondence added or dropped, the target schema swapped for a rebuilt
one — and after every mutation each cached result (the transformation, the
certification report, the flow report) must equal what a fresh
:class:`~repro.core.pipeline.MappingSystem` computes for the mutated problem.
"""

import copy
from dataclasses import replace

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.pipeline import MappingSystem
from repro.dsl.renderer import render_program
from repro.errors import ReproError
from repro.model.schema import RelationSchema, Schema
from repro.scenarios import bundled_problems

BUNDLED = bundled_problems()
MUTATIONS = ("flip-nullability", "add-correspondence", "drop-correspondence",
             "swap-target")


def _results(system: MappingSystem) -> dict:
    """Every cached result in comparable form, or the error it raises."""
    passes = {
        "transformation": lambda: render_program(system.transformation),
        "certify": lambda: system.certify().to_dict(),
        "flow": lambda: system.flow_report().render(),
    }
    results = {}
    for name, compute in passes.items():
        try:
            results[name] = compute()
        except ReproError as error:
            results[name] = f"{type(error).__name__}: {error}"
    return results


def _flipped(relation: RelationSchema, attribute: str) -> list:
    return [
        replace(item, nullable=not item.nullable)
        if item.name == attribute else item
        for item in relation.attributes
    ]


def _non_key_attributes(schema: Schema) -> list[tuple[str, str]]:
    return [
        (relation.name, item.name)
        for relation in schema
        for item in relation.attributes
        if item.name not in relation.key
    ]


def _attributes(schema: Schema) -> list[str]:
    return [f"{r.name}.{a.name}" for r in schema for a in r.attributes]


def _mutate(problem, kind: str, data) -> None:
    """Apply one mutation of ``kind`` to ``problem`` in place."""
    if kind == "flip-nullability":
        schema = data.draw(
            st.sampled_from([problem.source_schema, problem.target_schema])
        )
        candidates = _non_key_attributes(schema)
        assume(candidates)
        name, attribute = data.draw(st.sampled_from(candidates))
        relation = schema.relation(name)
        # Re-run the constructor: the attributes and their by-name index
        # change together, in the object the compiled system still holds.
        relation.__init__(
            name, _flipped(relation, attribute), relation.key, relation.span
        )
    elif kind == "add-correspondence":
        source = data.draw(st.sampled_from(_attributes(problem.source_schema)))
        target = data.draw(st.sampled_from(_attributes(problem.target_schema)))
        try:
            problem.add_correspondence(source, target)
        except ReproError:
            assume(False)
    elif kind == "drop-correspondence":
        assume(problem.correspondences)
        index = data.draw(
            st.integers(0, len(problem.correspondences) - 1)
        )
        del problem.correspondences[index]
    else:  # swap-target: a rebuilt target with one nullability flipped
        target = problem.target_schema
        candidates = _non_key_attributes(target)
        assume(candidates)
        name, attribute = data.draw(st.sampled_from(candidates))
        problem.target_schema = Schema(
            [
                RelationSchema(
                    relation.name,
                    _flipped(relation, attribute)
                    if relation.name == name else relation.attributes,
                    relation.key,
                    relation.span,
                )
                for relation in target
            ],
            target.foreign_keys,
            name=target.name,
        )
    try:
        problem.validate()
    except ReproError:
        assume(False)  # a fresh system would refuse the problem outright


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    name=st.sampled_from(sorted(BUNDLED)),
    kinds=st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3),
    data=st.data(),
)
def test_cached_results_follow_every_mutation(name, kinds, data):
    problem = copy.deepcopy(BUNDLED[name])
    system = MappingSystem(problem)
    before = _results(system)  # warm every cached entry
    assert before == _results(MappingSystem(copy.deepcopy(BUNDLED[name])))
    for kind in kinds:
        _mutate(problem, kind, data)
        assert _results(system) == _results(MappingSystem(problem)), kind
