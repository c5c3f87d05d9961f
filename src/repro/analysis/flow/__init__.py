"""Abstract-interpretation dataflow engine over generated Datalog programs.

A monotone framework (lattices + stratum-ordered worklist fixpoint solver,
:mod:`.lattice` / :mod:`.solver`) with three client analyses:

* :mod:`.nullability` — three-valued can-be-null facts per position,
  honoring the ``null`` / ``nonnull`` rule conditions of §5 (backs
  ``DLG010``);
* :mod:`.provenance` — which source relation/attribute sets can feed each
  position (``FLW001`` dead correspondences, ``FLW002`` Skolem-only
  mandatory columns);
* :mod:`.keyorigin` — whether target keys are grounded in source keys
  through the FK paths of §4, and a static replay of Algorithm 4's
  functionality check (``FLW003``).

:func:`analyze_flow` runs everything and returns a :class:`FlowReport`;
see ``docs/ANALYSIS.md`` for the code table.
"""

from .lattice import (
    BOTTOM,
    MAYBE,
    NO,
    YES,
    Lattice,
    NullabilityLattice,
    RankedLattice,
    SetLattice,
)
from .keyorigin import (
    DET,
    OPEN,
    SKEY,
    FunctionalityRecord,
    KeyOriginAnalysis,
    functionality_records,
)
from .nullability import NullabilityAnalysis, rule_term_status
from .provenance import NULL_ORIGIN, ProvenanceAnalysis
from .report import FlowReport, analyze_flow
from .solver import Environment, FlowError, FlowResult, FlowStats, solve

__all__ = [
    "BOTTOM",
    "MAYBE",
    "NO",
    "YES",
    "DET",
    "OPEN",
    "SKEY",
    "NULL_ORIGIN",
    "Lattice",
    "NullabilityLattice",
    "RankedLattice",
    "SetLattice",
    "Environment",
    "FlowError",
    "FlowResult",
    "FlowStats",
    "FlowReport",
    "FunctionalityRecord",
    "KeyOriginAnalysis",
    "NullabilityAnalysis",
    "ProvenanceAnalysis",
    "analyze_flow",
    "functionality_records",
    "rule_term_status",
    "solve",
]
