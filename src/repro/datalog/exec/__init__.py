"""Planned, set-oriented evaluation runtime for generated Datalog programs.

Layers:

* :mod:`repro.datalog.exec.plan` — per-rule operator trees
  (``scan -> hash-join* -> filter* -> antijoin* -> project``) with the join
  order chosen once per rule from relation statistics;
* :mod:`repro.datalog.exec.batch` — the batch executor: operators over row
  batches, probing the reusable hash indexes of the shared
  :class:`~repro.datalog.engine.RowStore`;
* :mod:`repro.datalog.exec.workers` — opt-in ``workers=N`` mode partitioning
  the outer scan across a process pool for large sources;
* :mod:`repro.datalog.exec.profile` — the measured operator/rule/stratum
  profiles behind ``repro run --explain-analyze`` and the ``exec.*``
  metric families.

The reference interpreter (:mod:`repro.datalog.engine`) stays the oracle:
``tests/test_engine_differential.py`` proves both engines and the SQLite
backend agree on every bundled scenario, the synthetic workloads and
hypothesis-generated problems.  See ``docs/ENGINE.md``.
"""

from .batch import BATCH_SIZE, evaluate_batch, run_plan
from .profile import (
    ExecutionProfile,
    OperatorStats,
    RuleProfile,
    StratumProfile,
    emit_profile_metrics,
    operators_for_plan,
)
from .plan import (
    AntiJoinOp,
    FilterOp,
    JoinOp,
    ProgramPlan,
    ProjectOp,
    RulePlan,
    ScanOp,
    order_atoms,
    plan_program,
    plan_rule,
)
from .workers import MIN_PARTITION_ROWS, run_plan_partitioned

__all__ = [
    "AntiJoinOp",
    "BATCH_SIZE",
    "ExecutionProfile",
    "FilterOp",
    "JoinOp",
    "MIN_PARTITION_ROWS",
    "OperatorStats",
    "ProgramPlan",
    "ProjectOp",
    "RulePlan",
    "RuleProfile",
    "ScanOp",
    "StratumProfile",
    "emit_profile_metrics",
    "evaluate_batch",
    "operators_for_plan",
    "order_atoms",
    "plan_program",
    "plan_rule",
    "run_plan",
    "run_plan_partitioned",
]
