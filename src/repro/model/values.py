"""Value domain for instances: constants, SQL-style null, and labeled nulls.

The paper distinguishes two kinds of incomplete values in target instances
(section 5):

* the *null value* (unlabeled null, "no-information" semantics) — represented
  here by the singleton :data:`NULL`;
* *invented values* (labeled nulls, "unknown" semantics) — placeholders
  produced by Skolem functors, represented by :class:`LabeledNull`.

Ordinary values are plain Python strings/ints; the paper assumes a single
simple type (strings) but nothing here depends on that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


class NullValue:
    """The unlabeled null.  A singleton; compares equal only to itself."""

    _instance: "NullValue | None" = None

    def __new__(cls) -> "NullValue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "null"

    def __reduce__(self):
        return (NullValue, ())


#: The unique unlabeled null value used in instances.
NULL = NullValue()


@dataclass(frozen=True)
class LabeledNull:
    """An invented value (labeled null), e.g. the result of ``f_p(c85)``.

    ``functor`` names the Skolem function that produced the value and ``args``
    are the (ground) argument values, which may themselves be labeled nulls.
    Two labeled nulls are equal iff functor and arguments are equal, which
    gives Skolem terms their intended "same inputs, same invented value"
    semantics.
    """

    functor: str
    args: tuple[Any, ...]

    def __repr__(self) -> str:
        inner = ",".join(format_value(a) for a in self.args)
        return f"{self.functor}({inner})"


def is_null(value: Any) -> bool:
    """True iff ``value`` is the unlabeled null."""
    return value is NULL or isinstance(value, NullValue)


def is_labeled_null(value: Any) -> bool:
    """True iff ``value`` is an invented value (labeled null)."""
    return isinstance(value, LabeledNull)


def format_value(value: Any) -> str:
    """Render a value the way the paper prints it (``null``, ``f(x)``, ``c85``)."""
    if is_null(value):
        return "null"
    return str(value)
