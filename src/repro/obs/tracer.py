"""The recorder: nested spans, monotonic timers and one metrics registry.

The active tracer lives in a :class:`contextvars.ContextVar`, so tracing is
re-entrant and safe across generators and (hypothetical) concurrent tasks.
Instrumentation sites call the module-level helpers :func:`span`,
:func:`count`, :func:`gauge` and :func:`observe`; when no tracer has been
installed they find the shared :data:`NOOP` tracer, whose ``span()``
allocates nothing and whose ``enabled = False`` makes the metric helpers
return at once — a single contextvar read each — so the instrumented
pipeline is unaffected when observability is off (the default).

A recording :class:`Tracer` keeps its spans plus one
:class:`~repro.obs.metrics.MetricsRegistry`, the only counter store:
``count`` adds to the registry's counter family (per label set) and to the
innermost span, and :attr:`Tracer.counters` reads the registry's totals per
name, summed over label sets.

Typical use::

    from repro.obs import Tracer, use_tracer, span, count

    tracer = Tracer()
    with use_tracer(tracer):
        with span("chase.relation", relation="C2") as s:
            count("chase.steps")
            count("eval.rows", 3, kind="source")
            s.set(tableaux=2)
    tracer.counters        # {"chase.steps": 1, "eval.rows": 3}
    tracer.metrics         # the labeled families, for the exporters
    tracer.spans[0].name   # "chase.relation"
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from .metrics import DEFAULT_BUCKETS, Counter, LabelKey, MetricsRegistry


@dataclass
class Span:
    """One timed, named region of the pipeline, possibly with children.

    ``start``/``end`` are :func:`time.perf_counter` readings; ``counters``
    holds the counts incremented while this span was the innermost one,
    summed over label sets.
    """

    name: str
    attributes: dict[str, Any] = field(default_factory=dict)
    start: float = 0.0
    end: float | None = None
    children: list["Span"] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Elapsed seconds (to now if the span is still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def set(self, **attributes: Any) -> None:
        """Attach result attributes after the fact (e.g. output sizes)."""
        self.attributes.update(attributes)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total_counters(self) -> dict[str, int]:
        """Counters aggregated over the whole subtree."""
        totals: dict[str, int] = {}
        for node in self.walk():
            for name, value in node.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals


class _NoopSpan:
    """A reusable, stateless stand-in for :class:`Span` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attributes: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """The do-nothing tracer installed by default.

    It records no spans and no metrics; ``span()`` hands back one shared
    context manager, so disabled instrumentation performs no allocation.
    """

    enabled = False
    spans: tuple[Span, ...] = ()
    counters: dict[str, int] = {}

    def span(self, name: str, **attributes: Any) -> _NoopSpan:
        return NOOP_SPAN

    def _ignore(self, *args: Any, **labels: Any) -> None:
        """Record nothing (``count``, ``gauge``, ``observe`` and ``merge``)."""

    count = gauge = observe = merge = _ignore


NOOP = NoopTracer()

#: The tracer instrumentation dispatches to; NOOP unless :func:`use_tracer`
#: installed a recording one.
_ACTIVE_TRACER: ContextVar["Tracer | NoopTracer"] = ContextVar(
    "repro_obs_tracer", default=NOOP
)
#: The innermost open span of the active tracer (for nesting and counters).
_CURRENT_SPAN: ContextVar[Span | None] = ContextVar("repro_obs_span", default=None)


class Tracer:
    """A recording tracer: a forest of spans plus one metrics registry."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.spans: list[Span] = []
        self.metrics = MetricsRegistry()

    @property
    def counters(self) -> dict[str, int]:
        """Each counter family's total, summed over its label sets."""
        return _counter_totals(self.metrics)

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a nested span; it closes (and is timed) on exit."""
        node = Span(name=name, attributes=attributes, start=self._clock())
        parent = _CURRENT_SPAN.get()
        if parent is None:
            self.spans.append(node)
        else:
            parent.children.append(node)
        token = _CURRENT_SPAN.set(node)
        try:
            yield node
        finally:
            node.end = self._clock()
            _CURRENT_SPAN.reset(token)

    def count(self, name: str, value: int = 1, **labels: Any) -> None:
        """Increment a counter (in the registry, and on the innermost span)."""
        self.metrics.inc(name, value, labels)
        current = _CURRENT_SPAN.get()
        if current is not None:
            current.counters[name] = current.counters.get(name, 0) + value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge (last write wins)."""
        self.metrics.gauge(name).set(value, **labels)

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> None:
        """Record a histogram observation."""
        self.metrics.histogram(name, buckets=buckets).observe(value, **labels)

    def record(
        self,
        counts: Iterable[tuple[str, LabelKey, int]],
        observations: Iterable[tuple[str, LabelKey, float]] = (),
    ) -> None:
        """Many counter increments and histogram observations in one pass.

        Each entry is ``(family, label key, value)`` with the key in the
        canonical form of :func:`~repro.obs.metrics._label_key` (label
        names sorted, values as strings).  Every family is resolved once
        per call; the samples, span counters and totals are those of one
        :meth:`count` or :meth:`observe` (default buckets) per entry.
        """
        registry = self.metrics
        current = _CURRENT_SPAN.get()
        families: dict[str, Any] = {}
        for name, key, value in counts:
            family = families.get(name)
            if family is None:
                family = families[name] = registry.counter(name)
            family.add(key, value)
            if current is not None:
                current.counters[name] = current.counters.get(name, 0) + value
        for name, key, value in observations:
            family = families.get(name)
            if family is None:
                family = families[name] = registry.histogram(name)
            family.observe_at(key, value)

    def merge(self, registry: MetricsRegistry) -> None:
        """Fold another recorder's registry (e.g. a worker process's) into
        this one; its counter totals also land on the innermost span."""
        self.metrics.merge(registry)
        current = _CURRENT_SPAN.get()
        if current is not None:
            for name, value in _counter_totals(registry).items():
                current.counters[name] = current.counters.get(name, 0) + value


def _counter_totals(registry: MetricsRegistry) -> dict[str, int]:
    return {
        family.name: int(family.total())
        for family in registry.families()
        if isinstance(family, Counter)
    }


def current_tracer() -> Tracer | NoopTracer:
    """The tracer instrumentation is currently dispatching to."""
    return _ACTIVE_TRACER.get()


def span(name: str, **attributes: Any):
    """Open a span on the active tracer (a no-op when tracing is off)."""
    return _ACTIVE_TRACER.get().span(name, **attributes)


# The metric helpers test ``enabled`` rather than call the no-op tracer:
# forwarding ``**labels`` into a no-op costs more than the contextvar read.


def count(name: str, value: int = 1, **labels: Any) -> None:
    """Increment a counter on the active tracer (a no-op when tracing is off)."""
    tracer = _ACTIVE_TRACER.get()
    if tracer.enabled:
        tracer.count(name, value, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    """Set a gauge on the active tracer (a no-op when tracing is off)."""
    tracer = _ACTIVE_TRACER.get()
    if tracer.enabled:
        tracer.gauge(name, value, **labels)


def observe(
    name: str,
    value: float,
    buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    **labels: Any,
) -> None:
    """Record a histogram observation (a no-op when tracing is off)."""
    tracer = _ACTIVE_TRACER.get()
    if tracer.enabled:
        tracer.observe(name, value, buckets, **labels)


@contextmanager
def use_tracer(tracer: Tracer | NoopTracer) -> Iterator[Tracer | NoopTracer]:
    """Install ``tracer`` as the active one for the duration of the block."""
    token = _ACTIVE_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER.reset(token)
