"""DBM kernel: encoded bounds, canonical DBMs, and federations of zones."""

from .bounds import (
    INF,
    LE_ZERO,
    LT_ZERO,
    add_bounds,
    bound,
    bound_as_string,
    bound_value,
    decode,
    is_strict,
    le,
    lt,
    negate,
)
from .dbm import DBM, Constraint, ScaledValuation
from .federation import Federation, subtract_zone
from .minform import minimal_constraints, verified_minimal_constraints

__all__ = [
    "INF",
    "LE_ZERO",
    "LT_ZERO",
    "add_bounds",
    "bound",
    "bound_as_string",
    "bound_value",
    "decode",
    "is_strict",
    "le",
    "lt",
    "negate",
    "DBM",
    "Constraint",
    "ScaledValuation",
    "Federation",
    "subtract_zone",
    "minimal_constraints",
    "verified_minimal_constraints",
]
