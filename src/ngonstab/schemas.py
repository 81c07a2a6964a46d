"""Shared input validation for the JSON interfaces: the error type and
the integer predicate every decoder uses.

SchemaError deliberately does not subclass ValueError: the command line
maps schema problems (malformed input, exit code 2) and domain problems
(valid input that violates a mathematical precondition, exit code 1) to
different exit codes, so the two exception families must stay disjoint.
"""

from __future__ import annotations

__all__ = ["SchemaError"]


class SchemaError(Exception):
    """Raised when a JSON value does not match the expected shape."""


def is_int(x: object) -> bool:
    """True for an integer value; JSON true and false decode to bool, a
    subclass of int, and are refused."""
    return isinstance(x, int) and not isinstance(x, bool)
