"""Exception types shared across the library, and the JSON field check.

Every exception carries a stable machine-readable ``kind`` string so callers
(and the CLI) can branch on failure classes without parsing messages.
:func:`check_fields` is the one place that validates the field names and
scalar types of a JSON input object, so every malformed input becomes a
:class:`SchemaError`.
"""

from __future__ import annotations

import math
import sys


class ExactQuadError(Exception):
    """Base class for all library failures."""

    kind = "error"


class SchemaError(ExactQuadError):
    """Invalid input object: bad field, unknown field, broken invariant."""

    kind = "schema"


class SyntaxParseError(SchemaError):
    """Expression text could not be parsed; ``offset`` is a 0-based byte offset."""

    kind = "syntax"

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(SyntaxParseError):
    kind = "unknown-identifier"


class EvalDomainError(ExactQuadError):
    """Evaluation left the real domain; ``subexpr`` names the offending piece."""

    kind = "domain"

    def __init__(self, message: str, subexpr: str):
        super().__init__(f"{message} in '{subexpr}'")
        self.subexpr = subexpr


class NonConvergenceError(ExactQuadError):
    kind = "non-convergence"


class DivergentMassError(ExactQuadError):
    kind = "divergent-mass"


class MomentDivergenceError(ExactQuadError):
    kind = "moment-divergence"


class NegativeDensityError(ExactQuadError):
    kind = "negative-density"


class InfeasibleCombinationError(ExactQuadError):
    kind = "infeasible-combination"


class ReconstructionError(ExactQuadError):
    kind = "reconstruction-failure"


class PolishError(ExactQuadError):
    kind = "polish-failure"


class UnboundedFunctionError(ExactQuadError):
    kind = "unbounded-function"


class WeightNormalizationError(ExactQuadError):
    kind = "weight-normalization"


# --- JSON input checks ------------------------------------------------------
# Kinds for :func:`check_fields`: predicates on a decoded JSON value.  JSON
# booleans decode to ``bool``, a subclass of ``int``, so they are excluded
# from the numeric kinds explicitly, an integer literal too long for a
# float would overflow on conversion, and Python's decoder accepts the
# non-standard ``NaN`` and ``Infinity``, which no number field takes.

def integer(value) -> bool:
    """An integer that converts to a finite float."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def number(value) -> bool:
    """A finite float, or an integer that converts to one."""
    return (isinstance(value, float) and math.isfinite(value)) or integer(value)


def positive(value) -> bool:
    """A number, as :func:`number` takes it, that is > 0."""
    return number(value) and value > 0


def boolean(value) -> bool:
    return isinstance(value, bool)


def string(value) -> bool:
    return isinstance(value, str)


def numbers(value) -> bool:
    return isinstance(value, list) and all(number(v) for v in value)


def strings(value) -> bool:
    """A non-empty list of strings."""
    return isinstance(value, list) and bool(value) and all(map(string, value))


def check_fields(obj, what: str, fields: dict, optional=()) -> None:
    """Check a decoded JSON object against its field table.

    ``fields`` maps every allowed name to a kind predicate, or to ``None``
    for a value whose own parser checks it.  Names in ``optional`` may be
    absent; all others are required.  Raises :class:`SchemaError` for a
    non-object, an unknown or missing field, or a value of the wrong kind.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be an object")
    unknown = set(obj) - set(fields)
    if unknown:
        raise SchemaError(f"unknown field(s) {sorted(unknown)} in {what}")
    missing = [k for k in fields if k not in obj and k not in optional]
    if missing:
        raise SchemaError(f"{what} is missing field(s) {missing}")
    for key, kind in fields.items():
        if kind is not None and key in obj and not kind(obj[key]):
            raise SchemaError(f"field {key!r} of {what} has an invalid value "
                              f"{obj[key]!r:.80}")
