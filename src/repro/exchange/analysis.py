"""Semantic analysis of a transformation run.

Bundles the checks the paper argues about informally — constraint
satisfaction, closeness to the canonical universal-instance semantics,
quality metrics — into one structured report, so examples, benchmarks and
downstream users can ask "how good is this transformation?" in one call.

This also operationalizes the paper's closing question (section 8): "we aim
at determining whether our generation algorithms compute canonical/universal
target instances" — :func:`analyze_transformation` answers it per run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.pipeline import MappingSystem
from ..errors import ConstraintViolationError
from ..model.instance import Instance
from ..model.validation import ValidationReport, validate_instance
from .instance_chase import canonical_universal_solution
from .metrics import InstanceMetrics, measure_instance
from .solutions import is_homomorphic_to


@dataclass
class TransformationAnalysis:
    """Everything known about one transformation output."""

    output: Instance
    metrics: InstanceMetrics
    validation: ValidationReport
    #: output == canonical solution under the paper's null policy
    is_canonical_null_policy: bool
    #: output embeds into the canonical solution (null-policy semantics)
    is_sound_wrt_canonical: bool
    #: the canonical solution embeds into the output
    is_complete_wrt_canonical: bool

    @property
    def is_universal(self) -> bool:
        """Universal in the data-exchange sense (equivalent to canonical)."""
        return self.is_sound_wrt_canonical and self.is_complete_wrt_canonical

    def summary(self) -> str:
        lines = [
            f"target tuples:        {self.metrics.total_tuples}",
            f"invented values:      {self.metrics.distinct_invented}",
            f"null values:          {self.metrics.null_values}",
            f"useless tuples:       {self.metrics.useless_tuples}",
            f"constraints:          {self.validation.summary()}",
            f"canonical (null pol): {self.is_canonical_null_policy}",
            f"sound wrt canonical:  {self.is_sound_wrt_canonical}",
            f"universal solution:   {self.is_universal}",
        ]
        return "\n".join(lines)


def analyze_transformation(
    system: MappingSystem, source: Instance
) -> TransformationAnalysis:
    """Run the transformation and measure it against the exchange semantics."""
    output = system.transform(source)
    metrics = measure_instance(output)
    validation = validate_instance(output)

    # The reference semantics is the canonical universal instance under the
    # paper's null policy (nullable existentials become the unlabeled null,
    # copy ≻ null ≻ invent at egd resolution) — the semantics the paper's
    # transformations are designed to realize (sections 5, 8).
    try:
        canonical = canonical_universal_solution(
            system.schema_mapping, source, null_for_nullable_existentials=True
        )
    except ConstraintViolationError:  # the egd chase failed: no solution
        is_canonical = sound = complete = False
    else:
        is_canonical = output == canonical
        sound = is_homomorphic_to(output, canonical)
        complete = is_homomorphic_to(canonical, output)

    return TransformationAnalysis(
        output=output,
        metrics=metrics,
        validation=validation,
        is_canonical_null_policy=is_canonical,
        is_sound_wrt_canonical=sound,
        is_complete_wrt_canonical=complete,
    )
